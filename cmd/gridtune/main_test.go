package main

import (
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs gridtune on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	cmdtest.ErrorPaths(t, cmdtest.Build(t), []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "-jsonl into a missing directory", Args: []string{"-quick", "-jsonl", "no-such-dir/x.jsonl"}, Exit: 1},
	})
}
