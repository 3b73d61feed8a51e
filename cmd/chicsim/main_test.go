package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"chicsim/internal/cmdtest"
	"chicsim/internal/core"
)

// TestErrorPaths runs chicsim on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	cases := []cmdtest.Case{
		{Name: "negative -obs-interval", Args: []string{"-obs-interval", "-5"}, Exit: 2},
		{Name: "negative -obs-interval with -obs-stream", Args: []string{"-obs-stream", "s.csv", "-obs-interval", "-5"}, Exit: 2},
		{Name: "-heatmap with no interval", Args: []string{"-heatmap", "-obs-interval", "0"}, Exit: 2},
		{Name: "negative -site-mtbf", Args: []string{"-site-mtbf", "-10"}, Exit: 1},
		{Name: "unknown -result-mode", Args: []string{"-result-mode", "bogus"}, Exit: 1},
		{Name: "-obs-stream into a missing directory", Args: []string{"-obs-stream", "no-such-dir/s.csv"}, Exit: 1},
		{Name: "-trace-out into a missing directory", Args: []string{"-trace-out", "no-such-dir/t.jsonl"}, Exit: 1},
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "-scenario with -config", Args: []string{"-scenario", "campus", "-config", "f.json"}, Exit: 2},
		{Name: "unknown -mapping", Args: []string{"-mapping", "bogus"}, Exit: 2},
		{Name: "bad -tiers", Args: []string{"-tiers", "2,x"}, Exit: 2},
	}
	for i := range cases {
		cases[i].Args = append([]string{"-jobs", "50"}, cases[i].Args...)
	}
	cmdtest.ErrorPaths(t, cmdtest.Build(t), cases)
}

// TestFlagsOverrideBase checks chicsim's layering rule: the base is the
// default, a -scenario or a -config, and every flag given overrides it.
func TestFlagsOverrideBase(t *testing.T) {
	bin := cmdtest.Build(t)
	dir := filepath.Dir(bin)
	load := func(name string) core.Config {
		t.Helper()
		f, err := os.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		defer f.Close()
		cfg, err := core.LoadConfig(f)
		if err != nil {
			t.Fatal(err)
		}
		return cfg
	}
	read := func(name string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}

	t.Run("-jobs over -scenario", func(t *testing.T) {
		var res core.Results
		if err := json.Unmarshal(cmdtest.Run(t, bin, "-scenario", "campus", "-jobs", "120", "-json"), &res); err != nil {
			t.Fatal(err)
		}
		if res.JobsDone != 120 {
			t.Fatalf("JobsDone = %d, want 120", res.JobsDone)
		}
	})
	t.Run("-config keeps its -mapping", func(t *testing.T) {
		cmdtest.Run(t, bin, "-mapping", "central", "-save-config", "a.json")
		cmdtest.Run(t, bin, "-config", "a.json", "-save-config", "b.json")
		if a, b := read("a.json"), read("b.json"); !bytes.Equal(a, b) {
			t.Fatalf("round trip changed the configuration:\n%s\nto\n%s", a, b)
		}
		if m := load("b.json").Mapping; m != core.ESCentral {
			t.Fatalf("Mapping = %v, want central", m)
		}
	})
	t.Run("-save-config keeps -tiers", func(t *testing.T) {
		cmdtest.Run(t, bin, "-sites", "12", "-tiers", "2,3,2", "-save-config", "t.json")
		cfg := load("t.json")
		if len(cfg.Tiers) != 3 || cfg.Tiers[0] != 2 || cfg.Tiers[1] != 3 || cfg.Tiers[2] != 2 {
			t.Fatalf("Tiers = %v, want [2 3 2]", cfg.Tiers)
		}
	})
}
