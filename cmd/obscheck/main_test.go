package main

import (
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs obscheck on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	cmdtest.ErrorPaths(t, cmdtest.Build(t), []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "nothing to check", Args: nil, Exit: 2},
		{Name: "-metrics on a missing file", Args: []string{"-metrics", "no-such-file.prom"}, Exit: 1},
	})
}
