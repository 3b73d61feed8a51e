package core

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"

	"chicsim/internal/faults"
	"chicsim/internal/obs"
	"chicsim/internal/trace"
)

// faultTestConfig is a small grid with every fault class switched on
// aggressively enough that a short run exercises all of them.
func faultTestConfig(seed uint64) Config {
	cfg := DefaultConfig()
	cfg.Seed = seed
	cfg.Sites = 8
	cfg.RegionFanout = 4
	cfg.Users = 16
	cfg.Files = 30
	cfg.TotalJobs = 240
	cfg.ObsInterval = 200
	cfg.Faults = faults.Config{
		SiteCrash:         faults.Spec{MTBF: 4000, MTTR: 400},
		CEFailure:         faults.Spec{MTBF: 2500, MTTR: 300},
		LinkDegrade:       faults.Spec{MTBF: 3000, MTTR: 500},
		LinkOutage:        faults.Spec{MTBF: 8000, MTTR: 200},
		TransferAbort:     faults.Spec{MTBF: 1500},
		ReplicaLoss:       faults.Spec{MTBF: 2000},
		MaxRetries:        5,
		RequeueOnRecovery: true,
		RestoreReplicas:   true,
	}
	return cfg
}

// runFingerprint runs cfg and renders everything observable about the
// run — the JSON results and every probe row — into one byte slice.
func runFingerprint(t *testing.T, cfg Config) (Results, []byte) {
	t.Helper()
	var rows bytes.Buffer
	cfg.ObsSink = obs.NewCSVSink(&rows)
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	buf, err := json.Marshal(res)
	if err != nil {
		t.Fatalf("encoding results: %v", err)
	}
	return res, append(buf, rows.Bytes()...)
}

// A faulted run must be exactly reproducible: same seed, same faults,
// same Results and observability series, byte for byte.
func TestFaultedRunDeterministic(t *testing.T) {
	a, fa := runFingerprint(t, faultTestConfig(7))
	b, fb := runFingerprint(t, faultTestConfig(7))
	if !reflect.DeepEqual(a, b) {
		t.Errorf("faulted runs differ:\n%+v\n%+v", a, b)
	}
	if !bytes.Equal(fa, fb) {
		t.Errorf("faulted run fingerprints differ:\n%s\n%s", fa, fb)
	}
	if a.Faults.FaultsInjected == 0 {
		t.Error("fault config injected nothing; test exercises no fault path")
	}
}

// A faults.Config with every MTBF zero must leave the simulation
// byte-identical to one with no fault config at all: the injector never
// attaches, flows are never tracked, the ES is never wrapped.
func TestZeroFaultRatesMatchBaseline(t *testing.T) {
	base := DefaultConfig()
	base.Seed = 11
	base.Sites = 6
	base.RegionFanout = 3
	base.Users = 12
	base.Files = 20
	base.TotalJobs = 120
	base.ObsInterval = 150

	disabled := base
	// Recovery knobs set but every MTBF zero: still disabled.
	disabled.Faults = faults.Config{MaxRetries: 7, RequeueOnRecovery: true, RestoreReplicas: true}

	ra, fa := runFingerprint(t, base)
	rb, fb := runFingerprint(t, disabled)
	if !bytes.Equal(fa, fb) {
		t.Errorf("zero fault rates perturbed the simulation:\n%+v\n%+v", ra, rb)
	}
	if rb.Faults != (faults.Stats{}) {
		t.Errorf("zero-rate run reported fault stats %+v", rb.Faults)
	}
}

// Site crashes must kill work and drive the retry machinery, and every
// job must still be accounted for: done + abandoned == submitted.
func TestSiteCrashRetryAccounting(t *testing.T) {
	cfg := faultTestConfig(3)
	log := trace.NewLog()
	cfg.Recorder = log

	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if !res.Completed {
		t.Fatal("faulted run did not complete")
	}
	if res.Faults.SiteCrashes == 0 {
		t.Error("no site crashes injected")
	}
	if res.Faults.Repairs == 0 {
		t.Error("no repairs recorded")
	}
	if res.JobsRetried == 0 {
		t.Error("faults killed jobs but nothing was retried")
	}
	if res.JobsDone+res.JobsFailed != cfg.TotalJobs {
		t.Errorf("jobs accounted: done %d + failed %d != %d",
			res.JobsDone, res.JobsFailed, cfg.TotalJobs)
	}

	a, err := trace.Analyze(log)
	if err != nil {
		t.Fatalf("faulted trace rejected: %v", err)
	}
	if a.FaultCount == 0 || a.RepairCount == 0 {
		t.Errorf("trace saw %d faults, %d repairs", a.FaultCount, a.RepairCount)
	}
	if a.RetryCount != res.JobsRetried {
		t.Errorf("trace retries %d, results %d", a.RetryCount, res.JobsRetried)
	}
	if a.AbandonedCount != res.JobsFailed {
		t.Errorf("trace abandoned %d, results %d", a.AbandonedCount, res.JobsFailed)
	}
	if len(a.Jobs) != res.JobsDone {
		t.Errorf("trace completed jobs %d, results %d", len(a.Jobs), res.JobsDone)
	}
}

// Each fault class works alone: enable one at a time and check the run
// completes with that class's counter moving and the others at zero.
func TestFaultClassesInIsolation(t *testing.T) {
	cases := []struct {
		name    string
		set     func(*faults.Config)
		counter func(faults.Stats) int
	}{
		{"site-crash", func(c *faults.Config) { c.SiteCrash = faults.Spec{MTBF: 3000, MTTR: 300} },
			func(s faults.Stats) int { return s.SiteCrashes }},
		{"ce-failure", func(c *faults.Config) { c.CEFailure = faults.Spec{MTBF: 1500, MTTR: 200} },
			func(s faults.Stats) int { return s.CEFailures }},
		{"link-degrade", func(c *faults.Config) { c.LinkDegrade = faults.Spec{MTBF: 2000, MTTR: 400} },
			func(s faults.Stats) int { return s.LinkDegradations }},
		{"link-outage", func(c *faults.Config) { c.LinkOutage = faults.Spec{MTBF: 4000, MTTR: 150} },
			func(s faults.Stats) int { return s.LinkOutages }},
		{"transfer-abort", func(c *faults.Config) { c.TransferAbort = faults.Spec{MTBF: 1200} },
			func(s faults.Stats) int { return s.TransfersAborted }},
		{"replica-loss", func(c *faults.Config) { c.ReplicaLoss = faults.Spec{MTBF: 200} },
			func(s faults.Stats) int { return s.ReplicasLost }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			cfg := faultTestConfig(5)
			cfg.Faults = faults.Config{MaxRetries: 5, RequeueOnRecovery: true, RestoreReplicas: true}
			tc.set(&cfg.Faults)
			log := trace.NewLog()
			cfg.Recorder = log
			res, err := RunConfig(cfg)
			if err != nil {
				t.Fatalf("run: %v", err)
			}
			if !res.Completed {
				t.Fatal("run did not complete")
			}
			if got := tc.counter(res.Faults); got == 0 {
				t.Errorf("%s: counter did not move (stats %+v)", tc.name, res.Faults)
			}
			if res.Faults.FaultsInjected != tc.counter(res.Faults) {
				t.Errorf("%s: total %d != class count %d — another class fired",
					tc.name, res.Faults.FaultsInjected, tc.counter(res.Faults))
			}
			if _, err := trace.Analyze(log); err != nil {
				t.Errorf("%s: trace rejected: %v", tc.name, err)
			}
		})
	}
}

// MaxRetries = 0 (after normalization, via -1 semantics) means abandon on
// first failure; jobs must still be accounted for and the grid drains.
func TestRetriesExhaustedAbandons(t *testing.T) {
	cfg := faultTestConfig(13)
	cfg.Faults.MaxRetries = -1 // no retries: first failure abandons
	cfg.Faults.RequeueOnRecovery = false
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if res.JobsDone+res.JobsFailed != cfg.TotalJobs {
		t.Errorf("jobs accounted: done %d + failed %d != %d",
			res.JobsDone, res.JobsFailed, cfg.TotalJobs)
	}
	if res.Faults.SiteCrashes > 0 && res.JobsFailed == 0 {
		t.Error("crashes with zero retries should abandon jobs")
	}
	if res.JobsRetried != 0 {
		t.Errorf("MaxRetries -1 but %d retries happened", res.JobsRetried)
	}
}
