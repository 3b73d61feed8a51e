package main

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths feeds every analysis mode of dgetrace each bad input:
// all must exit with status 1 and exactly one line on stderr, and -chrome
// must not create its output file. An unknown flag exits 2.
func TestErrorPaths(t *testing.T) {
	bin := cmdtest.Build(t)
	dir := filepath.Dir(bin)
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
	chrome := filepath.Join(dir, "out.json")
	modes := [][]string{nil, {"-validate"}, {"-spans", "1"}, {"-critpath"}, {"-chrome", chrome}}
	cases := []cmdtest.Case{{Name: "unknown flag", Args: []string{"-bogus", "t.jsonl"}, Exit: 2}}
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
			cases = append(cases, cmdtest.Case{Name: name, Args: append(mode, path), Exit: 1})
		}
	}
	cmdtest.ErrorPaths(t, bin, cases)
	if _, err := os.Stat(chrome); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("a rejected trace left %s behind (stat: %v)", chrome, err)
	}
}
