package logging

import (
	"bytes"
	"encoding/json"
	"flag"
	"log/slog"
	"strings"
	"testing"
)

func TestParseLevel(t *testing.T) {
	for in, want := range map[string]slog.Level{
		"debug": slog.LevelDebug,
		"info":  slog.LevelInfo,
		"":      slog.LevelInfo,
		"WARN":  slog.LevelWarn,
		"error": slog.LevelError,
	} {
		got, err := ParseLevel(in)
		if err != nil || got != want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseLevel("loud"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func TestNewJSONCarriesComponentAndAttrs(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelInfo, "json", "griddispatch")
	l.Info("shard requeued", "campaign", "abc123", "shard", 4, "worker", "w1-a")
	var doc map[string]any
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("log line is not JSON: %v\n%s", err, buf.String())
	}
	for k, want := range map[string]any{
		"component": "griddispatch",
		"msg":       "shard requeued",
		"campaign":  "abc123",
		"shard":     float64(4),
		"worker":    "w1-a",
	} {
		if doc[k] != want {
			t.Errorf("field %q = %v, want %v", k, doc[k], want)
		}
	}
}

func TestNewTextLevelFilter(t *testing.T) {
	var buf bytes.Buffer
	l := New(&buf, slog.LevelWarn, "text", "gridworker")
	l.Info("dropped")
	l.Warn("kept", "shard", 1)
	out := buf.String()
	if strings.Contains(out, "dropped") {
		t.Errorf("info line not filtered at warn level:\n%s", out)
	}
	if !strings.Contains(out, "kept") || !strings.Contains(out, "shard=1") ||
		!strings.Contains(out, "component=gridworker") {
		t.Errorf("warn line missing content:\n%s", out)
	}
}

func TestFlagsLogger(t *testing.T) {
	fs := flag.NewFlagSet("t", flag.ContinueOnError)
	f := BindFlags(fs)
	if err := fs.Parse([]string{"-log-level", "debug", "-log-format", "json"}); err != nil {
		t.Fatal(err)
	}
	if _, err := f.Logger("test"); err != nil {
		t.Fatal(err)
	}
	f.Format = "yaml"
	if _, err := f.Logger("test"); err == nil {
		t.Error("unknown format accepted")
	}
	f.Format = "text"
	f.Level = "loud"
	if _, err := f.Logger("test"); err == nil {
		t.Error("unknown level accepted")
	}
}
