// Package logging is the fleet's structured logging layer: a thin
// vocabulary over log/slog shared by every daemon and CLI so that one
// campaign's log lines correlate across processes. Each line carries the
// emitting component plus whatever fabric coordinates apply — campaign
// ID, shard index, worker ID — as attributes rather than prose, which
// makes a multi-process campaign greppable by `campaign=<id>` whether
// the handler renders text or JSON.
//
// Commands bind the shared -log-level / -log-format flags with
// BindFlags and build their logger with Flags.Logger. Libraries accept a
// *slog.Logger and never choose the handler themselves.
package logging

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log/slog"
	"os"
	"strings"
)

// Flags is the destination of the shared logging flag block. Bind it
// per command with BindFlags so every binary exposes the same
// vocabulary.
type Flags struct {
	Level  string // -log-level: debug, info, warn, error
	Format string // -log-format: text or json
}

// BindFlags registers the shared logging flags on fs (use
// flag.CommandLine in main) and returns the destination struct.
func BindFlags(fs *flag.FlagSet) *Flags {
	f := &Flags{}
	fs.StringVar(&f.Level, "log-level", "info", "log verbosity: debug, info, warn, error")
	fs.StringVar(&f.Format, "log-format", "text", "log line encoding: text or json")
	return f
}

// Logger builds the command's logger on os.Stderr from the bound flags,
// tagging every line with the component name.
func (f *Flags) Logger(component string) (*slog.Logger, error) {
	level, err := ParseLevel(f.Level)
	if err != nil {
		return nil, err
	}
	switch f.Format {
	case "text", "json":
	default:
		return nil, fmt.Errorf("logging: unknown -log-format %q (want text or json)", f.Format)
	}
	return New(os.Stderr, level, f.Format, component), nil
}

// ParseLevel maps a -log-level flag value to a slog.Level.
func ParseLevel(s string) (slog.Level, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "debug":
		return slog.LevelDebug, nil
	case "info", "":
		return slog.LevelInfo, nil
	case "warn", "warning":
		return slog.LevelWarn, nil
	case "error":
		return slog.LevelError, nil
	default:
		return 0, fmt.Errorf("logging: unknown -log-level %q (want debug, info, warn, error)", s)
	}
}

// New builds a logger writing to w with the given minimum level and
// format ("json" selects the JSON handler, anything else text), tagging
// every line with component. Pass component "" to skip the tag.
func New(w io.Writer, level slog.Leveler, format, component string) *slog.Logger {
	opts := &slog.HandlerOptions{Level: level}
	var h slog.Handler
	if format == "json" {
		h = slog.NewJSONHandler(w, opts)
	} else {
		h = slog.NewTextHandler(w, opts)
	}
	l := slog.New(h)
	if component != "" {
		l = l.With("component", component)
	}
	return l
}

// Discard returns a logger that drops everything — the nil-object for
// code paths that want an always-usable *slog.Logger.
func Discard() *slog.Logger { return slog.New(discardHandler{}) }

type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (discardHandler) WithAttrs([]slog.Attr) slog.Handler        { return discardHandler{} }
func (discardHandler) WithGroup(string) slog.Handler             { return discardHandler{} }
