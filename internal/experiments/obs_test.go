package experiments

import (
	"reflect"
	"testing"

	"chicsim/internal/core"
)

// Probe series are produced inside each simulation's own deterministic
// event loop, so the campaign runner's worker count must not change a
// single sampled byte. This is the engine's determinism guarantee
// extended to the observability layer.
func TestProbeSeriesIdenticalAcrossWorkers(t *testing.T) {
	base := core.DefaultConfig()
	base.TotalJobs = 300 // small but long enough for several probe ticks
	base.ObsInterval = 120

	run := func(workers int) []CellResult {
		return Run(Campaign{
			Base: base,
			Cells: []Cell{
				{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10},
				{ES: "JobLeastLoaded", DS: "DataRandom", BandwidthMBps: 10},
			},
			Seeds:   []uint64{1, 2},
			Workers: workers,
		})
	}

	serial, parallel := run(1), run(4)
	if len(serial) != len(parallel) {
		t.Fatalf("cell counts differ: %d vs %d", len(serial), len(parallel))
	}
	for i := range serial {
		if serial[i].Err != nil || parallel[i].Err != nil {
			t.Fatalf("cell %v failed: %v / %v", serial[i].Cell, serial[i].Err, parallel[i].Err)
		}
		for j := range serial[i].Runs {
			a, b := serial[i].Runs[j].Series, parallel[i].Runs[j].Series
			if a == nil || len(a.Points) == 0 {
				t.Fatalf("cell %v seed %d produced an empty series", serial[i].Cell, serial[i].Runs[j].Seed)
			}
			if !reflect.DeepEqual(a, b) {
				t.Fatalf("cell %v seed %d: series differ between -workers=1 and -workers=4",
					serial[i].Cell, serial[i].Runs[j].Seed)
			}
		}
	}
}
