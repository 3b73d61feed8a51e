package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorPaths builds gridsweep and runs it on each bad invocation:
// every one must exit with its status and exactly one line on stderr,
// before any simulation starts.
func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "gridsweep")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"unknown flag", []string{"-bogus"}, 2},
		{"-fig faults", []string{"-fig", "faults"}, 2},
		{"-fig feedback", []string{"-fig", "feedback"}, 2},
		{"-fig bogus", []string{"-fig", "bogus"}, 2},
		{"-fig ablations with one seed", []string{"-fig", "ablations", "-seeds", "1"}, 2},
		{"-obs-stream", []string{"-obs-stream", "s.csv"}, 2},
		{"-trace-out", []string{"-trace-out", "t.jsonl"}, 2},
		{"-fleet-trace without -dispatch", []string{"-fleet-trace", "f.json"}, 2},
		{"-listen with -dispatch", []string{"-dispatch", "http://127.0.0.1:1", "-listen", "127.0.0.1:0"}, 2},
		{"-metrics-out with -dispatch", []string{"-dispatch", "http://127.0.0.1:1", "-metrics-out", "m.prom"}, 2},
		{"-watchdog with -dispatch", []string{"-dispatch", "http://127.0.0.1:1", "-watchdog", "warn"}, 2},
		{"-from-jsonl on a missing file", []string{"-from-jsonl", "no-such-file.jsonl"}, 1},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cmd := exec.Command(bin, tc.args...)
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
