package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestErrorPaths builds dgetrace and feeds every analysis mode each bad
// input: all must exit with status 1 and exactly one line on stderr, and
// -chrome must not create its output file.
func TestErrorPaths(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "dgetrace")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	inputs := []struct{ name, trace string }{
		{"missing file", ""},
		{"malformed JSON line", `{"t":0,"kind":"job_submitted","job":1}` + "\n" + `{"t":1,"kind":`},
		{"fetch_end without start", `{"t":5,"kind":"fetch_end","file":1,"src":0,"dst":1,"bytes":1}`},
		{"site crashes twice", `{"t":1,"kind":"site_crashed","site":2}` + "\n" +
			`{"t":2,"kind":"site_crashed","site":2}`},
		{"crash with an open fetch into the site", `{"t":0,"kind":"fetch_start","job":1,"file":5,"src":1,"dst":2}` + "\n" +
			`{"t":1,"kind":"site_crashed","site":2}`},
		{"job abandoned and completed", strings.Join([]string{
			`{"t":0,"kind":"job_submitted","job":1}`,
			`{"t":0,"kind":"job_dispatched","job":1,"site":2}`,
			`{"t":1,"kind":"job_retried","job":1,"site":2}`,
			`{"t":2,"kind":"job_dispatched","job":1,"site":3}`,
			`{"t":3,"kind":"job_started","job":1,"site":3}`,
			`{"t":4,"kind":"job_completed","job":1,"site":3}`,
			`{"t":5,"kind":"job_abandoned","job":1}`,
		}, "\n")},
	}
	modes := [][]string{
		nil,
		{"-validate"},
		{"-spans", "1"},
		{"-critpath"},
		{"-chrome", filepath.Join(dir, "out.json")},
	}
	for i, in := range inputs {
		path := filepath.Join(dir, "missing.jsonl")
		if in.trace != "" {
			path = filepath.Join(dir, fmt.Sprintf("in%d.jsonl", i))
			if err := os.WriteFile(path, []byte(in.trace+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		for _, mode := range modes {
			name := in.name + "/default"
			if mode != nil {
				name = in.name + "/" + mode[0]
			}
			t.Run(name, func(t *testing.T) {
				cmd := exec.Command(bin, append(mode, path)...)
				var stderr bytes.Buffer
				cmd.Stderr = &stderr
				err := cmd.Run()
				var exit *exec.ExitError
				if !errors.As(err, &exit) || exit.ExitCode() != 1 {
					t.Fatalf("exit = %v, want status 1", err)
				}
				if lines := strings.Split(strings.TrimSuffix(stderr.String(), "\n"), "\n"); len(lines) != 1 || lines[0] == "" {
					t.Fatalf("stderr has %d lines, want one:\n%s", len(lines), stderr.String())
				}
				if mode != nil && mode[0] == "-chrome" {
					if _, err := os.Stat(mode[1]); !errors.Is(err, os.ErrNotExist) {
						t.Fatalf("a rejected trace left %s behind (stat: %v)", mode[1], err)
					}
				}
			})
		}
	}
}
