package main

import (
	"os"
	"path/filepath"
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs kernelbench on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	malformed := filepath.Join(t.TempDir(), "malformed.json")
	if err := os.WriteFile(malformed, []byte(`{"results": [`), 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.ErrorPaths(t, cmdtest.Build(t), []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "bad -only pattern", Args: []string{"-only", "("}, Exit: 2},
		{Name: "-prev missing file", Args: []string{"-prev", "no-such-baseline.json"}, Exit: 1},
		{Name: "-prev malformed file", Args: []string{"-prev", malformed}, Exit: 1},
	})
}
