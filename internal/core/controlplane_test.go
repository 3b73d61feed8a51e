package core

import (
	"reflect"
	"strings"
	"testing"

	"chicsim/internal/faults"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
)

func controlPlaneCfg(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Sites = 6
	cfg.Users = 12
	cfg.Files = 30
	cfg.TotalJobs = 240
	cfg.RegionFanout = 3
	cfg.ObsInterval = 500
	return cfg
}

// TestControlPlaneDoesNotPerturbResults is the control plane's
// determinism regression: attaching the registry and the watchdog must
// leave every field of Results, SimEvents included, and every probe row
// the sink gets identical to a bare run with the same ObsInterval — both
// fire the one observation tick.
func TestControlPlaneDoesNotPerturbResults(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		cfg := controlPlaneCfg(7)
		if faulted {
			cfg.Faults.SiteCrash.MTBF = 4000
			cfg.Faults.SiteCrash.MTTR = 500
			cfg.Faults.TransferAbort.MTBF = 3000
		}
		var bareRows, wiredRows strings.Builder
		cfg.ObsSink = obs.NewCSVSink(&bareRows)
		bare, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("faulted=%v bare: %v", faulted, err)
		}
		if faulted && bare.Faults.FaultsInjected == 0 {
			t.Fatal("faulted variant injected nothing; test exercises nothing")
		}

		attached := cfg
		attached.Metrics = registry.New()
		attached.Watchdog = watchdog.Fail
		attached.ObsSink = obs.NewCSVSink(&wiredRows)
		wired, err := RunConfig(attached)
		if err != nil {
			t.Fatalf("faulted=%v wired: %v", faulted, err)
		}

		if wired.WatchdogViolations != 0 {
			t.Fatalf("faulted=%v: healthy run reported %d violations", faulted, wired.WatchdogViolations)
		}
		wired.WatchdogViolations = 0
		if !reflect.DeepEqual(bare, wired) {
			t.Errorf("faulted=%v: Results differ with control plane attached:\nbare:  %+v\nwired: %+v",
				faulted, bare, wired)
		}
		if bareRows.Len() == 0 || bareRows.String() != wiredRows.String() {
			t.Errorf("faulted=%v: probe rows differ with control plane attached (%d vs %d bytes)",
				faulted, bareRows.Len(), wiredRows.Len())
		}
	}
}

// TestRegistryPopulated checks the registry's totals, synced on the obs
// tick from core's tallies, against the run's own Results after a healthy
// and a faulted run.
func TestRegistryPopulated(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		cfg := controlPlaneCfg(3)
		if faulted {
			cfg.Faults.SiteCrash = faults.Spec{MTBF: 1000, MTTR: 500}
			cfg.Faults.CEFailure = faults.Spec{MTBF: 1000, MTTR: 600}
			cfg.Faults.MaxRetries = 1
		}
		reg := registry.New()
		cfg.Metrics = reg
		sim, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		r, err := sim.Run()
		if err != nil {
			t.Fatal(err)
		}
		if faulted && (r.JobsRetried == 0 || r.JobsFailed == 0) {
			t.Fatalf("faulted run retried %d and abandoned %d jobs; test exercises nothing", r.JobsRetried, r.JobsFailed)
		}
		totals := []struct {
			name, label string
			want        int
		}{
			{"sim_jobs_total", "submitted", cfg.TotalJobs},
			{"sim_jobs_total", "done", r.JobsDone},
			{"sim_jobs_total", "retried", r.JobsRetried},
			{"sim_jobs_total", "abandoned", r.JobsFailed},
			{"sim_dispatches_total", "", sim.dispatches},
			{"sim_replications_total", "", r.Replications},
		}
		for _, tc := range totals {
			var labels []string
			if tc.label != "" {
				labels = []string{tc.label}
			}
			if v, ok := reg.Value(tc.name, labels...); !ok || v != float64(tc.want) {
				t.Errorf("faulted=%v: %s{%s} = %v, %v; want %d", faulted, tc.name, tc.label, v, ok, tc.want)
			}
		}
		if v, ok := reg.Value("sim_virtual_time_seconds"); !ok || v != r.SimEndTime {
			t.Errorf("faulted=%v: sim_virtual_time_seconds = %v, %v; want %v", faulted, v, ok, r.SimEndTime)
		}
		// The per-site response histograms must jointly hold every
		// completed job.
		var total uint64
		for _, fam := range reg.Gather() {
			if fam.Name != "sim_response_seconds" {
				continue
			}
			for _, smp := range fam.Samples {
				total += smp.Hist.Count
			}
		}
		if total != uint64(r.JobsDone) {
			t.Errorf("faulted=%v: response histogram holds %d observations, want %d", faulted, total, r.JobsDone)
		}
		// And the whole thing must render as valid exposition text.
		var sb strings.Builder
		if err := registry.WritePrometheus(&sb, reg.Gather()); err != nil {
			t.Fatal(err)
		}
		if err := registry.CheckText(strings.NewReader(sb.String())); err != nil {
			t.Errorf("faulted=%v: registry output not valid Prometheus text: %v", faulted, err)
		}
	}
}

// TestWatchdogCatchesSeededViolation seeds a deliberate conservation bug
// (wdSkewDone shifts the done count inside the check) and asserts Fail
// mode aborts the run mid-flight with the violation as the error.
func TestWatchdogCatchesSeededViolation(t *testing.T) {
	cfg := controlPlaneCfg(5)
	cfg.Watchdog = watchdog.Fail
	var seen []watchdog.Violation
	cfg.OnViolation = func(v watchdog.Violation) { seen = append(seen, v) }
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.wdSkewDone = 1 // the seeded accounting bug
	r, err := sim.Run()
	if err == nil {
		t.Fatal("Run succeeded despite broken job accounting")
	}
	if !strings.Contains(err.Error(), "job_conservation") {
		t.Fatalf("error does not name the violated invariant: %v", err)
	}
	if r.Completed {
		t.Error("fail-fast run reported Completed")
	}
	if r.WatchdogViolations == 0 {
		t.Error("Results.WatchdogViolations is 0")
	}
	if len(seen) == 0 || seen[0].Check != "job_conservation" {
		t.Errorf("OnViolation observed %+v", seen)
	}
	// Fail-fast means early: the run must have stopped at the first obs
	// tick, long before the workload drained.
	if r.SimEndTime > cfg.ObsInterval*2 {
		t.Errorf("run continued to t=%v after the violation (ObsInterval %v)", r.SimEndTime, cfg.ObsInterval)
	}
}

// TestWatchdogWarnModeCompletes seeds the same bug in Warn mode: the run
// finishes, with the violations counted.
func TestWatchdogWarnModeCompletes(t *testing.T) {
	cfg := controlPlaneCfg(5)
	cfg.Watchdog = watchdog.Warn
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	sim.wdSkewDone = 1
	r, err := sim.Run()
	if err != nil {
		t.Fatalf("Warn mode failed the run: %v", err)
	}
	if !r.Completed {
		t.Error("run did not complete")
	}
	if r.WatchdogViolations == 0 {
		t.Error("violations not counted in Warn mode")
	}
}

// TestWatchdogHealthyFaultedRun runs the watchdog in Fail mode over a
// heavily faulted workload: the retry/requeue/re-replication paths must
// keep every invariant intact at every tick.
func TestWatchdogHealthyFaultedRun(t *testing.T) {
	cfg := controlPlaneCfg(11)
	cfg.Watchdog = watchdog.Fail
	cfg.Faults.SiteCrash.MTBF = 20000
	cfg.Faults.SiteCrash.MTTR = 2000
	cfg.Faults.CEFailure.MTBF = 15000
	cfg.Faults.CEFailure.MTTR = 1500
	cfg.Faults.LinkDegrade.MTBF = 15000
	cfg.Faults.LinkDegrade.MTTR = 2000
	cfg.Faults.TransferAbort.MTBF = 10000
	cfg.Faults.ReplicaLoss.MTBF = 10000
	r, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("watchdog tripped on a correct (faulted) run: %v", err)
	}
	if r.Faults.FaultsInjected == 0 {
		t.Fatal("fault config injected nothing; test exercises nothing")
	}
	if r.WatchdogViolations != 0 {
		t.Errorf("%d violations on a correct run", r.WatchdogViolations)
	}
}

// TestConfigValidatesControlPlane: registry/watchdog without an obs tick
// is a config error, not a silent no-op.
func TestConfigValidatesControlPlane(t *testing.T) {
	cfg := DefaultConfig()
	cfg.Metrics = registry.New()
	if err := cfg.Validate(); err == nil {
		t.Error("Metrics without ObsInterval passed validation")
	}
	cfg = DefaultConfig()
	cfg.Watchdog = watchdog.Warn
	if err := cfg.Validate(); err == nil {
		t.Error("Watchdog without ObsInterval passed validation")
	}
}
