package main

import (
	"os"
	"path/filepath"
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs griddispatch on each bad invocation: every one must exit
// with its status and exactly one line on stderr.
func TestErrorPaths(t *testing.T) {
	bin := cmdtest.Build(t)
	// A journal whose spec entry Submit would refuse stops the dispatcher
	// before it listens.
	noCells := filepath.Join(filepath.Dir(bin), "nocells.journal")
	if err := os.WriteFile(noCells, []byte(`{"t":"spec","spec":{"cells":[]}}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	cmdtest.ErrorPaths(t, bin, []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "unknown -log-level", Args: []string{"-log-level", "bogus"}, Exit: 1},
		{Name: "journal spec with no cells", Args: []string{"-listen", "127.0.0.1:0", "-journal", "nocells.journal"}, Exit: 1,
			Line: "griddispatch: fabric: campaign has no cells (in the journal's spec entry)"},
	})
}
