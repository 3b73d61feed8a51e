package core

import (
	"bytes"
	"math"
	"testing"

	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/workload"
)

// smallConfig is a scaled-down Table 1 grid that runs in milliseconds.
func smallConfig() Config {
	cfg := DefaultConfig()
	cfg.Sites = 10
	cfg.Users = 40
	cfg.Files = 60
	cfg.TotalJobs = 800
	cfg.RegionFanout = 4
	return cfg
}

func TestDefaultConfigValid(t *testing.T) {
	cfg := DefaultConfig()
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	// Table 1 values.
	if cfg.Users != 120 || cfg.Sites != 30 || cfg.Files != 200 || cfg.TotalJobs != 6000 {
		t.Fatal("Table 1 values wrong")
	}
	if cfg.MinCEs != 2 || cfg.MaxCEs != 5 || cfg.BandwidthMBps != 10 {
		t.Fatal("Table 1 values wrong")
	}
}

func TestRunCompletesAllJobs(t *testing.T) {
	res, err := RunConfig(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 800 {
		t.Fatalf("done=%d completed=%v", res.JobsDone, res.Completed)
	}
	if res.AvgResponseSec <= 0 || res.Makespan <= 0 {
		t.Fatalf("degenerate metrics: %+v", res.Results)
	}
	if res.IdleFrac < 0 || res.IdleFrac > 1 {
		t.Fatalf("IdleFrac = %v", res.IdleFrac)
	}
}

func TestDeterminism(t *testing.T) {
	// Cover both a replication-dominated cell and a fetch-heavy cell:
	// the latter exercises heavy concurrent-flow churn in netsim, where a
	// map-iteration ordering bug once made tied transfer completions
	// nondeterministic.
	for _, pair := range [][2]string{
		{"JobDataPresent", "DataLeastLoaded"},
		{"JobRandom", "DataDoNothing"},
		{"JobLeastLoaded", "DataRandom"},
	} {
		cfg := smallConfig()
		cfg.ES, cfg.DS = pair[0], pair[1]
		run := func() Results {
			res, err := RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			return res
		}
		a, b := run(), run()
		if a.AvgResponseSec != b.AvgResponseSec || a.Makespan != b.Makespan ||
			a.AvgDataPerJobMB != b.AvgDataPerJobMB || a.SimEvents != b.SimEvents {
			t.Fatalf("%s+%s non-deterministic: %+v vs %+v", pair[0], pair[1], a.Results, b.Results)
		}
	}
}

func TestSeedsDiffer(t *testing.T) {
	cfg := smallConfig()
	a, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.Seed = 99
	b, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgResponseSec == b.AvgResponseSec {
		t.Fatal("different seeds produced identical response times")
	}
}

func TestAllAlgorithmCombinationsRun(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 200
	for _, esName := range ExternalNames() {
		for _, dsName := range DatasetNames() {
			cfg.ES, cfg.DS = esName, dsName
			res, err := RunConfig(cfg)
			if err != nil {
				t.Fatalf("%s+%s: %v", esName, dsName, err)
			}
			if res.JobsDone != 200 {
				t.Fatalf("%s+%s: %d jobs done", esName, dsName, res.JobsDone)
			}
		}
	}
}

func TestAllLocalSchedulersRun(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 200
	for _, lsName := range LocalNames() {
		cfg.LS = lsName
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", lsName, err)
		}
		if res.JobsDone != 200 {
			t.Fatalf("%s: %d done", lsName, res.JobsDone)
		}
	}
}

func TestUnknownAlgorithmsRejected(t *testing.T) {
	for _, mutate := range []func(*Config){
		func(c *Config) { c.ES = "JobBogus" },
		func(c *Config) { c.LS = "Bogus" },
		func(c *Config) { c.DS = "DataBogus" },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Error("expected error for unknown algorithm")
		}
	}
}

func TestInvalidConfigsRejected(t *testing.T) {
	for i, mutate := range []func(*Config){
		func(c *Config) { c.Sites = 0 },
		func(c *Config) { c.Users = 0 },
		func(c *Config) { c.Files = 0 },
		func(c *Config) { c.TotalJobs = 0 },
		func(c *Config) { c.MinCEs = 0 },
		func(c *Config) { c.MaxCEs = c.MinCEs - 1 },
		func(c *Config) { c.RegionFanout = 0 },
		func(c *Config) { c.BandwidthMBps = 0 },
		func(c *Config) { c.DSInterval = 0 },
		func(c *Config) { c.DSThreshold = 0 },
	} {
		cfg := smallConfig()
		mutate(&cfg)
		if _, err := New(cfg); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

func TestSimulationSingleUse(t *testing.T) {
	sim, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err == nil {
		t.Fatal("second Run must error")
	}
}

func TestMaxTimeAbort(t *testing.T) {
	cfg := smallConfig()
	cfg.MaxTime = 100 // virtual seconds: nowhere near enough
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completed {
		t.Fatal("run claims completion under absurd MaxTime")
	}
	if res.JobsDone >= cfg.TotalJobs {
		t.Fatalf("JobsDone = %d", res.JobsDone)
	}
}

func TestTraceReplayMatchesSynthetic(t *testing.T) {
	cfg := smallConfig()
	synthetic, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// Generate the identical workload externally and replay it.
	wl, err := workload.Generate(cfg.WorkloadSpec(), rng.New(cfg.Seed).Derive("workload"))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = wl
	replayed, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if synthetic.AvgResponseSec != replayed.AvgResponseSec {
		t.Fatalf("replay diverged: %v vs %v", synthetic.AvgResponseSec, replayed.AvgResponseSec)
	}
}

// A generated workload written to a trace file and read back replays the
// synthetic run exactly: the file path carries IDs, inputs and compute
// times that the flat in-memory form derives.
func TestTraceFileReplayMatchesSynthetic(t *testing.T) {
	cell := smallConfig()
	cell.ES, cell.DS = "JobDataPresent", "DataLeastLoaded"
	multi := smallConfig()
	multi.InputsPerJob = 3
	for name, cfg := range map[string]Config{"paper-cell": cell, "inputs=3": multi} {
		t.Run(name, func(t *testing.T) {
			synthetic, err := RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			wl, err := workload.Generate(cfg.WorkloadSpec(), rng.New(cfg.Seed).Derive("workload"))
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := wl.WriteTrace(&buf); err != nil {
				t.Fatal(err)
			}
			if cfg.Trace, err = workload.ReadTrace(&buf); err != nil {
				t.Fatal(err)
			}
			replayed, err := RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := hashResults(t, replayed), hashResults(t, synthetic); got != want {
				t.Fatalf("replay from file: Results hash %s, synthetic %s", got, want)
			}
		})
	}
}

func TestTraceSpecMismatchRejected(t *testing.T) {
	cfg := smallConfig()
	spec := cfg.WorkloadSpec()
	spec.Sites = cfg.Sites + 1
	spec.Users = cfg.Users
	wl, err := workload.Generate(spec, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	cfg.Trace = wl
	if _, err := New(cfg); err == nil {
		t.Fatal("expected trace/config mismatch error")
	}
}

func TestESMappings(t *testing.T) {
	for _, m := range []ESMapping{ESPerSite, ESCentral, ESPerUser} {
		cfg := smallConfig()
		cfg.TotalJobs = 200
		cfg.Mapping = m
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("mapping %v: %v", m, err)
		}
		if res.JobsDone != 200 {
			t.Fatalf("mapping %v: %d done", m, res.JobsDone)
		}
	}
}

func TestCentralMappingJobLocalRunsAtHost(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 100
	cfg.ES = "JobLocal"
	cfg.DS = "DataDoNothing"
	cfg.Mapping = ESCentral
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	// All jobs must have run at site 0, the central host.
	for _, rec := range sim.collector.Records() {
		if rec.Site != 0 {
			t.Fatalf("job %d ran at %d under central JobLocal", rec.ID, rec.Site)
		}
	}
}

func TestMultiInputJobsComplete(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.InputsPerJob = 3
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 300 {
		t.Fatalf("done = %d", res.JobsDone)
	}
}

func TestSingleSiteGrid(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 1
	cfg.Users = 4
	cfg.Files = 10
	cfg.TotalJobs = 50
	cfg.StorageGB = 0 // a single site must hold all masters anyway
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 50 {
		t.Fatalf("done = %d", res.JobsDone)
	}
	if res.FetchMBPerJob != 0 {
		t.Fatalf("single-site grid moved %v MB/job", res.FetchMBPerJob)
	}
}

func TestUnlimitedStorage(t *testing.T) {
	cfg := smallConfig()
	cfg.StorageGB = 0
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Evictions != 0 {
		t.Fatalf("unlimited storage evicted %d times", res.Evictions)
	}
}

func TestMaxMinSharingRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.Sharing = netsim.MaxMinFair
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 300 {
		t.Fatalf("done = %d", res.JobsDone)
	}
}

func TestResponseNeverBelowCompute(t *testing.T) {
	cfg := smallConfig()
	sim, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		t.Fatal(err)
	}
	for _, rec := range sim.collector.Records() {
		if rec.Response() < rec.ComputeTime-1e-9 {
			t.Fatalf("job %d response %v < compute %v", rec.ID, rec.Response(), rec.ComputeTime)
		}
		if rec.Start < rec.Dispatch || rec.End < rec.Start || rec.Dispatch < rec.Submit {
			t.Fatalf("job %d timestamps inverted", rec.ID)
		}
	}
}

// TestPaperShapes asserts the six qualitative results of the paper (see
// DESIGN.md §5) at full Table 1 scale with a single seed per cell.
func TestPaperShapes(t *testing.T) {
	if testing.Short() {
		t.Skip("full-scale shape check skipped in -short mode")
	}
	cfg := DefaultConfig()
	run := func(esName, dsName string, bw float64) Results {
		c := cfg
		c.ES, c.DS, c.BandwidthMBps = esName, dsName, bw
		res, err := RunConfig(c)
		if err != nil {
			t.Fatalf("%s+%s@%g: %v", esName, dsName, bw, err)
		}
		return res
	}

	noRep := map[string]Results{}
	withRep := map[string]Results{}
	for _, esName := range PaperExternalNames() {
		noRep[esName] = run(esName, "DataDoNothing", 10)
		withRep[esName] = run(esName, "DataLeastLoaded", 10)
	}

	// (1) Without replication JobLocal is best, JobDataPresent worst.
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobDataPresent"} {
		if noRep["JobLocal"].AvgResponseSec >= noRep[esName].AvgResponseSec {
			t.Errorf("shape 1: JobLocal (%.0f) not better than %s (%.0f) without replication",
				noRep["JobLocal"].AvgResponseSec, esName, noRep[esName].AvgResponseSec)
		}
	}
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobLocal"} {
		if noRep["JobDataPresent"].AvgResponseSec <= noRep[esName].AvgResponseSec {
			t.Errorf("shape 1: JobDataPresent (%.0f) not worst vs %s (%.0f) without replication",
				noRep["JobDataPresent"].AvgResponseSec, esName, noRep[esName].AvgResponseSec)
		}
	}

	// (2) With replication JobDataPresent is best on all three metrics and
	// beats the best no-replication algorithm.
	dp := withRep["JobDataPresent"]
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobLocal"} {
		o := withRep[esName]
		if dp.AvgResponseSec >= o.AvgResponseSec {
			t.Errorf("shape 2: JobDataPresent response %.0f not better than %s %.0f", dp.AvgResponseSec, esName, o.AvgResponseSec)
		}
		if dp.AvgDataPerJobMB >= o.AvgDataPerJobMB {
			t.Errorf("shape 2: JobDataPresent data %.0f not lower than %s %.0f", dp.AvgDataPerJobMB, esName, o.AvgDataPerJobMB)
		}
		if dp.IdleFrac >= o.IdleFrac {
			t.Errorf("shape 2: JobDataPresent idle %.2f not lower than %s %.2f", dp.IdleFrac, esName, o.IdleFrac)
		}
	}
	if dp.AvgResponseSec >= noRep["JobLocal"].AvgResponseSec {
		t.Errorf("shape 2: JobDataPresent+rep (%.0f) does not beat best no-rep (%.0f)",
			dp.AvgResponseSec, noRep["JobLocal"].AvgResponseSec)
	}

	// (3) JobDataPresent transfers > 400 MB/job less than the others.
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobLocal"} {
		if diff := withRep[esName].AvgDataPerJobMB - dp.AvgDataPerJobMB; diff < 400 {
			t.Errorf("shape 3: data gap vs %s = %.0f MB, want > 400", esName, diff)
		}
	}

	// (4) Replication does not improve the other three algorithms'
	// response times (allow 10%% tolerance for "remain the same").
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobLocal"} {
		if withRep[esName].AvgResponseSec < 0.9*noRep[esName].AvgResponseSec {
			t.Errorf("shape 4: replication improved %s from %.0f to %.0f",
				esName, noRep[esName].AvgResponseSec, withRep[esName].AvgResponseSec)
		}
	}

	// (5) DataRandom ≈ DataLeastLoaded for the winning pair (within 20%).
	dpRand := run("JobDataPresent", "DataRandom", 10)
	ratio := dpRand.AvgResponseSec / dp.AvgResponseSec
	if ratio < 0.8 || ratio > 1.2 {
		t.Errorf("shape 5: DataRandom/DataLeastLoaded = %.2f, want ~1", ratio)
	}

	// (6) At 100 MB/s JobLocal ≈ JobDataPresent (within 15%) and the
	// data-moving algorithms improve substantially (≥ 25%).
	fastLocal := run("JobLocal", "DataLeastLoaded", 100)
	fastDP := run("JobDataPresent", "DataLeastLoaded", 100)
	ratio = fastLocal.AvgResponseSec / fastDP.AvgResponseSec
	if ratio < 0.85 || ratio > 1.15 {
		t.Errorf("shape 6: JobLocal/JobDataPresent at 100MB/s = %.2f, want ~1", ratio)
	}
	for _, esName := range []string{"JobRandom", "JobLeastLoaded", "JobLocal"} {
		fast := run(esName, "DataLeastLoaded", 100)
		if fast.AvgResponseSec > 0.75*withRep[esName].AvgResponseSec {
			t.Errorf("shape 6: %s only improved from %.0f to %.0f at 100MB/s",
				esName, withRep[esName].AvgResponseSec, fast.AvgResponseSec)
		}
	}
	// JobDataPresent roughly flat (within 20%).
	if r := fastDP.AvgResponseSec / dp.AvgResponseSec; r < 0.8 || r > 1.2 {
		t.Errorf("shape 6: JobDataPresent not flat across bandwidths: ratio %.2f", r)
	}
}

// TestSeedVariance mirrors the paper's observation: "we ran with different
// random seeds in order to evaluate variance; in practice, we found no
// significant variation."
func TestSeedVariance(t *testing.T) {
	if testing.Short() {
		t.Skip("variance check skipped in -short mode")
	}
	cfg := DefaultConfig()
	var responses []float64
	for seed := uint64(1); seed <= 3; seed++ {
		cfg.Seed = seed
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		responses = append(responses, res.AvgResponseSec)
	}
	mean := (responses[0] + responses[1] + responses[2]) / 3
	for _, r := range responses {
		if math.Abs(r-mean)/mean > 0.35 {
			t.Fatalf("seed variance too large: %v (mean %v)", responses, mean)
		}
	}
}

func TestWorkloadAccessor(t *testing.T) {
	sim, err := New(smallConfig())
	if err != nil {
		t.Fatal(err)
	}
	if sim.Workload().TotalJobs() != 800 {
		t.Fatal("Workload accessor wrong")
	}
	if sim.Engine() == nil {
		t.Fatal("Engine accessor nil")
	}
}
