package kernelbench

import (
	"testing"

	"chicsim/internal/core"
)

// TestScaleEventsPerJobFlat pins engine events per job on the scale
// scenario, for the default ES and for the data-moving JobRandom tier:
// going from 10k to 100k jobs must change it by less than 2×. Events are
// a deterministic count, so this holds on any machine. Periodic work that
// runs whether or not there is anything to do, such as idle DS wakes,
// makes events per job fall with the tier instead.
func TestScaleEventsPerJobFlat(t *testing.T) {
	if testing.Short() {
		t.Skip("four scale simulations skipped in -short mode")
	}
	for _, es := range []string{"JobDataPresent", "JobRandom"} {
		perJob := func(jobs int) float64 {
			cfg := ScaleConfig(jobs)
			cfg.ES = es
			res, err := core.RunConfig(cfg)
			if err != nil {
				t.Fatalf("%s at %d jobs: %v", es, jobs, err)
			}
			return float64(res.SimEvents) / float64(jobs)
		}
		small, large := perJob(10_000), perJob(100_000)
		t.Logf("%s: %.2f events/job at 10k, %.2f at 100k", es, small, large)
		if large > 2*small || small > 2*large {
			t.Errorf("%s: events/job %.2f at 10k vs %.2f at 100k, want within 2×", es, small, large)
		}
	}
}
