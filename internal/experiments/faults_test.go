package experiments

import (
	"encoding/json"
	"testing"

	"chicsim/internal/core"
)

// A faulted run is still one deterministic event loop, so the campaign
// runner's worker count must not change a byte of its Results — metrics,
// fault counters, or sampled series. This is the determinism acceptance
// criterion for the fault subsystem.
func TestFaultedRunsIdenticalAcrossWorkers(t *testing.T) {
	base := core.DefaultConfig()
	base.TotalJobs = 300
	base.Faults.SiteCrash.MTTR = 400
	base.Faults.CEFailure.MTBF = 2500
	base.Faults.CEFailure.MTTR = 300
	base.Faults.TransferAbort.MTBF = 1500
	base.Faults.RequeueOnRecovery = true
	base.Faults.RestoreReplicas = true
	base.ObsInterval = 120

	var cells []Cell
	for _, a := range Ablations() {
		if a.Name == "crashes" {
			cells = a.Arms
		}
	}
	if len(cells) < 2 {
		t.Fatalf("crashes study has %d arms", len(cells))
	}
	run := func(workers int) []CellResult {
		return Run(Campaign{
			Base:    base,
			Cells:   cells,
			Seeds:   []uint64{1, 2},
			Workers: workers,
		})
	}

	fingerprint := func(r core.Results) string {
		b, err := json.Marshal(r)
		if err != nil {
			t.Fatal(err)
		}
		return string(b)
	}

	serial, parallel := run(1), run(4)
	faulted := 0
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("cell %v failed: %v / %v", serial[i].Cell, serial[i].Err, parallel[i].Err)
		}
		for j := range serial[i].Runs {
			a, b := serial[i].Runs[j], parallel[i].Runs[j]
			if fa, fb := fingerprint(a), fingerprint(b); fa != fb {
				t.Fatalf("cell %v seed %d: results differ between -workers=1 and -workers=4",
					serial[i].Cell, a.Seed)
			}
			faulted += a.Faults.FaultsInjected
		}
	}
	if faulted == 0 {
		t.Fatal("no faults injected anywhere in the sweep")
	}
}
