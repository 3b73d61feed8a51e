package main

import (
	"bytes"
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorPaths builds wlgen and runs it on each bad invocation: every
// one must exit with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "wlgen")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	cases := []struct {
		name string
		args []string
		exit int
	}{
		{"negative -ranks", []string{"-hist", "-ranks", "-1"}, 2},
		{"negative -jobs", []string{"-jobs", "-5"}, 1},
		{"no files", []string{"-files", "0"}, 1},
		{"no inputs", []string{"-inputs", "0"}, 1},
		{"-geom-p above 1", []string{"-geom-p", "2"}, 1},
		{"-o into a missing directory", []string{"-o", "no-such-dir/w.jsonl"}, 1},
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
