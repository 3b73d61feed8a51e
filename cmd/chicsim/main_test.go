package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorPaths builds chicsim and runs it on each bad invocation: every
// one must exit with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "chicsim")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"negative -obs-interval", []string{"-obs-interval", "-5"}, 2},
		{"negative -obs-interval with -obs", []string{"-obs", "s.csv", "-obs-interval", "-5"}, 2},
		{"-heatmap with no interval", []string{"-heatmap", "-obs-interval", "0"}, 2},
		{"negative -site-mtbf", []string{"-site-mtbf", "-10"}, 1},
		{"unknown -result-mode", []string{"-result-mode", "bogus"}, 1},
		{"-obs-stream into a missing directory", []string{"-obs-stream", "no-such-dir/s.csv"}, 1},
		{"-obs into a missing directory", []string{"-obs", "no-such-dir/s.csv"}, 1},
		{"-trace-out into a missing directory", []string{"-trace-out", "no-such-dir/t.jsonl"}, 1},
		{"unknown flag", []string{"-bogus"}, 2},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, append([]string{"-jobs", "50"}, tc.args...)...)
			cmd.Dir = dir
			var stderr bytes.Buffer
			cmd.Stderr = &stderr
			err := cmd.Run()
			var exit *exec.ExitError
			if !errors.As(err, &exit) || exit.ExitCode() != tc.exit {
				t.Fatalf("exit = %v, want status %d; stderr:\n%s", err, tc.exit, stderr.String())
			}
			if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || lines[0] == "" {
				t.Fatalf("stderr has %d lines, want one:\n%s", len(lines), stderr.String())
			}
		})
	}
}
