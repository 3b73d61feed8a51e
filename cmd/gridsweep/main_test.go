package main

import (
	"testing"

	"chicsim/internal/cmdtest"
)

// TestErrorPaths runs gridsweep on each bad invocation: every one must
// exit with its status and exactly one line on stderr, before any
// simulation starts.
func TestErrorPaths(t *testing.T) {
	cmdtest.ErrorPaths(t, cmdtest.Build(t), []cmdtest.Case{
		{Name: "unknown flag", Args: []string{"-bogus"}, Exit: 2},
		{Name: "-fig faults", Args: []string{"-fig", "faults"}, Exit: 2},
		{Name: "-fig feedback", Args: []string{"-fig", "feedback"}, Exit: 2},
		{Name: "-fig bogus", Args: []string{"-fig", "bogus"}, Exit: 2},
		{Name: "-fig ablations with one seed", Args: []string{"-fig", "ablations", "-seeds", "1"}, Exit: 2},
		{Name: "-obs-stream", Args: []string{"-obs-stream", "s.csv"}, Exit: 2},
		{Name: "-trace-out", Args: []string{"-trace-out", "t.jsonl"}, Exit: 2},
		{Name: "-fleet-trace without -dispatch", Args: []string{"-fleet-trace", "f.json"}, Exit: 2},
		{Name: "-listen with -dispatch", Args: []string{"-dispatch", "http://127.0.0.1:1", "-listen", "127.0.0.1:0"}, Exit: 2},
		{Name: "-metrics-out with -dispatch", Args: []string{"-dispatch", "http://127.0.0.1:1", "-metrics-out", "m.prom"}, Exit: 2},
		{Name: "-watchdog with -dispatch", Args: []string{"-dispatch", "http://127.0.0.1:1", "-watchdog", "warn"}, Exit: 2},
		{Name: "-from-jsonl on a missing file", Args: []string{"-from-jsonl", "no-such-file.jsonl"}, Exit: 1},
	})
}
