package main

import (
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs wlgen on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	cases := []cmdtest.Case{
		{Name: "negative -ranks", Args: []string{"-hist", "-ranks", "-1"}, Exit: 2},
		{Name: "negative -jobs", Args: []string{"-jobs", "-5"}, Exit: 1},
		{Name: "no files", Args: []string{"-files", "0"}, Exit: 1},
		{Name: "no inputs", Args: []string{"-inputs", "0"}, Exit: 1},
		{Name: "-geom-p above 1", Args: []string{"-geom-p", "2"}, Exit: 1},
		{Name: "-o into a missing directory", Args: []string{"-o", "no-such-dir/w.jsonl"}, Exit: 1},
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
	}
	for i := range cases {
		cases[i].Args = append([]string{"-jobs", "50"}, cases[i].Args...)
	}
	cmdtest.ErrorPaths(t, cmdtest.Build(t), cases)
}
