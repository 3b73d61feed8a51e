package core

import (
	"reflect"
	"testing"

	"chicsim/internal/scheduler/feedback"
)

// TestFeedbackZeroWeightReducesToBaselines is the feedback pair's exact
// reduction guarantee: with every telemetry weight at zero, JobFeedback
// and DataFeedback must produce Results byte-identical to
// JobDataPresent and DataLeastLoaded — same placements, same replica
// pushes, same RNG consumption. Only the policy name strings and
// SimEvents (the tracker's sampling ticks are engine events) are
// excluded.
func TestFeedbackZeroWeightReducesToBaselines(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		cfg := controlPlaneCfg(11)
		cfg.InfoStaleness = 120 // stale GIS: where the policies would diverge if weights leaked
		if faulted {
			cfg.Faults.SiteCrash.MTBF = 4000
			cfg.Faults.SiteCrash.MTTR = 500
			cfg.Faults.RequeueOnRecovery = true
			cfg.Faults.RestoreReplicas = true
		}
		cfg.ES, cfg.DS = "JobDataPresent", "DataLeastLoaded"
		base, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("faulted=%v baseline: %v", faulted, err)
		}
		if faulted && base.Faults.FaultsInjected == 0 {
			t.Fatal("faulted variant injected nothing; test exercises nothing")
		}

		fb := cfg
		fb.ES, fb.DS = "JobFeedback", "DataFeedback"
		fb.Feedback = feedback.Params{} // all weights zero; cadence fields fill from defaults
		adaptive, err := RunConfig(fb)
		if err != nil {
			t.Fatalf("faulted=%v feedback: %v", faulted, err)
		}

		base.ES, base.DS = "", ""
		adaptive.ES, adaptive.DS = "", ""
		base.SimEvents, adaptive.SimEvents = 0, 0
		if !reflect.DeepEqual(base, adaptive) {
			t.Errorf("faulted=%v: zero-weight feedback diverged from baselines:\nbaseline: %+v\nfeedback: %+v",
				faulted, base, adaptive)
		}
	}
}

// TestFeedbackNonzeroWeightsDiverge guards the guard: with the tuned
// default weights the adaptive pair must NOT replay the baseline
// placements on a stale-GIS grid, otherwise the reduction test above
// would pass vacuously.
func TestFeedbackNonzeroWeightsDiverge(t *testing.T) {
	cfg := controlPlaneCfg(11)
	cfg.InfoStaleness = 120
	cfg.ES, cfg.DS = "JobDataPresent", "DataLeastLoaded"
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	fb := cfg
	fb.ES, fb.DS = "JobFeedback", "DataFeedback"
	adaptive, err := RunConfig(fb)
	if err != nil {
		t.Fatal(err)
	}
	if base.AvgResponseSec == adaptive.AvgResponseSec && base.SiteJobGini == adaptive.SiteJobGini {
		t.Fatal("default-weight feedback pair replayed the baseline exactly; telemetry path is dead")
	}
}
