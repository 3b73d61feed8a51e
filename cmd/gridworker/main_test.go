package main

import (
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs gridworker on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	cmdtest.ErrorPaths(t, cmdtest.Build(t), []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "unknown -log-level", Args: []string{"-log-level", "bogus"}, Exit: 1},
		{Name: "malformed -dispatcher", Args: []string{"-dispatcher", "http://[::1"}, Exit: 2,
			Line: `gridworker: -dispatcher: parse "http://[::1": missing ']' in host`},
	})
}
