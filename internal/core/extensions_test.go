package core

import (
	"fmt"
	"testing"

	"chicsim/internal/trace"
)

func TestThinkTimeStretchesWorkload(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 400
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ThinkTimeMean = 500
	slow, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.JobsDone != 400 {
		t.Fatalf("think-time run done = %d", slow.JobsDone)
	}
	// Users pausing between jobs must lengthen the makespan...
	if slow.Makespan <= base.Makespan {
		t.Fatalf("think time did not stretch makespan: %v vs %v", slow.Makespan, base.Makespan)
	}
	// ...and reduce contention, so response should not get worse by much.
	if slow.AvgResponseSec > base.AvgResponseSec*1.2 {
		t.Fatalf("response degraded under think time: %v vs %v", slow.AvgResponseSec, base.AvgResponseSec)
	}
}

func TestOpenArrivalsComplete(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 400
	cfg.ArrivalRate = 1.0 / 400 // one job per user every ~400 s
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 400 {
		t.Fatalf("open model: done=%d completed=%v", res.JobsDone, res.Completed)
	}
}

func TestOpenArrivalsOverload(t *testing.T) {
	// An arrival rate far above service capacity must still complete the
	// finite workload (queues absorb the burst), with long queue waits.
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.ArrivalRate = 1 // one submission per user per second: a flood
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.JobsDone != 300 {
		t.Fatalf("done = %d", res.JobsDone)
	}
	if res.AvgQueueWait <= 0 {
		t.Fatal("flooded grid shows no queueing")
	}
}

func TestOpenArrivalsDeterministic(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.ArrivalRate = 1.0 / 100
	a, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if a.AvgResponseSec != b.AvgResponseSec || a.Makespan != b.Makespan {
		t.Fatal("open model not deterministic")
	}
}

func TestBackboneBandwidthHelps(t *testing.T) {
	// A transfer-heavy policy should benefit from a 10× backbone: the
	// root links are the shared bottleneck for cross-region traffic.
	cfg := smallConfig()
	cfg.ES, cfg.DS = "JobLeastLoaded", "DataDoNothing"
	slow, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.BackboneMBps = 100
	fast, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if fast.AvgResponseSec >= slow.AvgResponseSec {
		t.Fatalf("backbone upgrade did not help: %v vs %v", fast.AvgResponseSec, slow.AvgResponseSec)
	}
}

func TestLatencySlowsTransfers(t *testing.T) {
	// Low-contention setting (few users, fast links) so the per-hop
	// setup latency dominates and its effect is monotone. Under heavy
	// contention latency can help by staggering flows, which is why the
	// transfer-heavy cells are not a clean signal for this test.
	cfg := smallConfig()
	cfg.ES, cfg.DS = "JobRandom", "DataDoNothing"
	cfg.Users = 8
	cfg.TotalJobs = 80
	cfg.BandwidthMBps = 100
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.LatencyMsPerHop = 30000 // absurd 30 s/hop to make the effect plain
	slow, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if slow.JobsDone != 80 {
		t.Fatalf("done = %d", slow.JobsDone)
	}
	if slow.AvgResponseSec <= base.AvgResponseSec {
		t.Fatalf("latency did not slow responses: %v vs %v", slow.AvgResponseSec, base.AvgResponseSec)
	}
}

func TestDegradationInjection(t *testing.T) {
	cfg := smallConfig()
	cfg.ES, cfg.DS = "JobLocal", "DataDoNothing"
	cfg.TotalJobs = 300
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	// A long backbone brownout in the middle of the run: everything must
	// still complete, slower.
	cfg.Degradations = []Degradation{{At: 100, Duration: 5000, Multiplier: 0.05, BackboneOnly: true}}
	hurt, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !hurt.Completed || hurt.JobsDone != 300 {
		t.Fatalf("degraded run: done=%d completed=%v", hurt.JobsDone, hurt.Completed)
	}
	if hurt.AvgResponseSec <= base.AvgResponseSec {
		t.Fatalf("backbone brownout did not hurt: %v vs %v", hurt.AvgResponseSec, base.AvgResponseSec)
	}
}

func TestFullOutageRecovery(t *testing.T) {
	// Total network outage: transfers stall entirely, then recover.
	cfg := smallConfig()
	cfg.TotalJobs = 200
	cfg.Degradations = []Degradation{{At: 50, Duration: 2000, Multiplier: 0}}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 200 {
		t.Fatalf("outage run: done=%d completed=%v", res.JobsDone, res.Completed)
	}
}

func TestInvalidDegradationRejected(t *testing.T) {
	cfg := smallConfig()
	cfg.Degradations = []Degradation{{At: -1, Duration: 10, Multiplier: 0.5}}
	if _, err := RunConfig(cfg); err == nil {
		t.Fatal("expected error for negative start")
	}
	cfg.Degradations = []Degradation{{At: 1, Duration: 0, Multiplier: 0.5}}
	if _, err := RunConfig(cfg); err == nil {
		t.Fatal("expected error for zero duration")
	}
}

func TestTieredTopologyRuns(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 12
	cfg.Users = 24
	cfg.TotalJobs = 240
	cfg.Tiers = []int{2, 3, 2} // 4-level GriPhyN tree, 12 leaf sites
	cfg.TierBandwidthsMBps = []float64{100, 20, 10}
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 240 {
		t.Fatalf("done=%d", res.JobsDone)
	}
}

func TestTiersMustMatchSites(t *testing.T) {
	cfg := smallConfig()
	cfg.Tiers = []int{2, 3} // 6 != cfg.Sites (10)
	if _, err := New(cfg); err == nil {
		t.Fatal("mismatched tier product accepted")
	}
	cfg.Tiers = []int{0, 3}
	if _, err := New(cfg); err == nil {
		t.Fatal("zero fanout accepted")
	}
}

func TestCPUHeterogeneity(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.CPUSpreadFrac = 0.5
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 300 {
		t.Fatalf("done=%d", res.JobsDone)
	}
	// With spread, some jobs run faster than their nominal compute time.
	faster := 0
	for _, rec := range runJobRows(t, cfg) {
		if rec.end-rec.start < rec.compute-1e-9 {
			faster++
		}
	}
	if faster == 0 {
		t.Fatal("no job ran on a faster-than-nominal processor")
	}
	cfg.CPUSpreadFrac = 1.5
	if _, err := New(cfg); err == nil {
		t.Fatal("spread >= 1 accepted")
	}
}

func TestJobRegionalCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.ES = "JobRegional"
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 300 {
		t.Fatalf("done=%d", res.JobsDone)
	}
	// Region-confined placement never crosses the backbone for compute:
	// fetched bytes may cross, but per-job traffic should sit below the
	// scatter policies (repeat hits inside the region).
	cfg.ES = "JobRandom"
	scatter, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.AvgDataPerJobMB >= scatter.AvgDataPerJobMB {
		t.Fatalf("regional placement moved more data (%v) than random scatter (%v)",
			res.AvgDataPerJobMB, scatter.AvgDataPerJobMB)
	}
}

func TestRegionalInfoCompletes(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 400
	global, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.RegionalInfo = true
	regional, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !regional.Completed || regional.JobsDone != 400 {
		t.Fatalf("regional info: done=%d", regional.JobsDone)
	}
	// Partial knowledge must change behavior (different placements), and
	// it cannot make JobDataPresent dramatically better than the oracle.
	if regional.AvgResponseSec == global.AvgResponseSec {
		t.Fatal("regional scoping had no effect at all")
	}
	if regional.AvgResponseSec < global.AvgResponseSec*0.7 {
		t.Fatalf("partial info mysteriously beat the oracle: %v vs %v",
			regional.AvgResponseSec, global.AvgResponseSec)
	}
}

func TestDSDeletion(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 400
	cfg.ES = "JobRandom" // scatter jobs so caches fill with one-off files
	cfg.DSDeleteAfter = 2
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 400 {
		t.Fatalf("done=%d", res.JobsDone)
	}
	if res.DSDeletions == 0 {
		t.Fatal("deletion-enabled DS never deleted anything")
	}
	// Without the feature, no DS deletions are recorded.
	cfg.DSDeleteAfter = 0
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.DSDeletions != 0 {
		t.Fatalf("paper config recorded %d DS deletions", base.DSDeletions)
	}
}

func TestDSDeletionKeepsCorrectness(t *testing.T) {
	// Aggressive deletion (1 idle window) must never break execution:
	// masters stay, and deleted replicas are refetched on demand.
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.DSDeleteAfter = 1
	cfg.DSInterval = 100
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Completed || res.JobsDone != 300 {
		t.Fatalf("done=%d completed=%v", res.JobsDone, res.Completed)
	}
}

func TestOutputShipping(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.ES = "JobLeastLoaded" // jobs usually run away from home
	base, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if base.OutputMBPerJob != 0 {
		t.Fatalf("paper config shipped output: %v", base.OutputMBPerJob)
	}
	cfg.OutputFraction = 0.1
	withOut, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if withOut.OutputMBPerJob <= 0 || withOut.OutputCount == 0 {
		t.Fatalf("no output traffic recorded: %+v", withOut.Results)
	}
	// Output is ~10% of input volume for remotely run jobs.
	if withOut.OutputMBPerJob > withOut.FetchMBPerJob {
		t.Fatalf("output %v exceeds fetch %v at 10%%", withOut.OutputMBPerJob, withOut.FetchMBPerJob)
	}
	// Output contends for bandwidth: fetches should slow at least a bit,
	// so response must not improve.
	if withOut.AvgResponseSec < base.AvgResponseSec*0.98 {
		t.Fatalf("adding output traffic improved response: %v vs %v", withOut.AvgResponseSec, base.AvgResponseSec)
	}
}

func TestOutputLocalJobsShipNothing(t *testing.T) {
	cfg := smallConfig()
	cfg.Sites = 1
	cfg.Users = 4
	cfg.Files = 10
	cfg.TotalJobs = 50
	cfg.StorageGB = 0
	cfg.OutputFraction = 0.5
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.OutputMBPerJob != 0 {
		t.Fatalf("single-site grid shipped output: %v", res.OutputMBPerJob)
	}
}

func TestOutputTraceValidates(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 200
	cfg.ES = "JobLeastLoaded"
	cfg.OutputFraction = 0.2
	log := trace.NewLog()
	cfg.Recorder = log
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	a, err := trace.Analyze(log)
	if err != nil {
		t.Fatal(err)
	}
	if a.OutputCount != res.OutputCount {
		t.Fatalf("trace outputs %d vs online %d", a.OutputCount, res.OutputCount)
	}
	if d := a.AvgDataPerJobMB() - res.AvgDataPerJobMB; d > 1e-6 || d < -1e-6 {
		t.Fatalf("data accounting diverged: %v vs %v", a.AvgDataPerJobMB(), res.AvgDataPerJobMB)
	}
}

func TestBatchSchedulingCompletes(t *testing.T) {
	for _, name := range BatchNames() {
		cfg := smallConfig()
		cfg.TotalJobs = 300
		cfg.BatchES = name
		cfg.BatchWindow = 120
		res, err := RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !res.Completed || res.JobsDone != 300 {
			t.Fatalf("%s: done=%d", name, res.JobsDone)
		}
		if res.ES != name {
			t.Fatalf("results report ES %q, want %q", res.ES, name)
		}
		// Buffered dispatch: queue wait includes the batch delay, so
		// dispatch must lag submission for most jobs.
		if res.AvgResponseSec <= 0 {
			t.Fatalf("%s: degenerate response", name)
		}
	}
}

func TestBatchRequiresWindow(t *testing.T) {
	cfg := smallConfig()
	cfg.BatchES = "BatchMinMin"
	cfg.BatchWindow = 0
	if _, err := New(cfg); err == nil {
		t.Fatal("batch mode without window accepted")
	}
	cfg.BatchWindow = 60
	cfg.BatchES = "BatchBogus"
	if _, err := New(cfg); err == nil {
		t.Fatal("unknown batch scheduler accepted")
	}
}

// TestSampling checks the columns report.Heatmap and report.Timeline
// draw from: one sNN.cpu_util gauge per site plus jobs_queued and
// inflight_transfers, one point per ObsInterval while the workload runs.
func TestSampling(t *testing.T) {
	cfg := smallConfig()
	cfg.TotalJobs = 300
	cfg.ObsInterval = 120
	res, s := runSeries(t, cfg)
	if len(s.Points) == 0 {
		t.Fatal("no samples collected")
	}
	want := int(res.Makespan / 120)
	if len(s.Points) < want-2 || len(s.Points) > want+2 {
		t.Fatalf("samples = %d, expected ~%d", len(s.Points), want)
	}
	for i := 1; i < len(s.Points); i++ {
		if s.Points[i].T <= s.Points[i-1].T {
			t.Fatalf("sample times not increasing at %d", i)
		}
	}
	for _, name := range []string{"jobs_queued", "inflight_transfers"} {
		if s.Column(name) == nil {
			t.Fatalf("missing %s column", name)
		}
	}
	if s.Column(fmt.Sprintf("s%02d.cpu_util", cfg.Sites)) != nil {
		t.Fatalf("cpu_util column beyond the %d sites", cfg.Sites)
	}
	sawBusy := false
	for site := 0; site < cfg.Sites; site++ {
		busy := s.Column(fmt.Sprintf("s%02d.cpu_util", site))
		if busy == nil {
			t.Fatalf("site %d has no cpu_util column", site)
		}
		for _, b := range busy {
			if b < 0 || b > 1 {
				t.Fatalf("busy fraction %v out of range", b)
			}
			if b > 0 {
				sawBusy = true
			}
		}
	}
	if !sawBusy {
		t.Fatal("no sample ever saw a busy processor")
	}
}

func TestSiteJobGiniHotspot(t *testing.T) {
	cfg := smallConfig()
	cfg.ES = "JobDataPresent"
	cfg.DS = "DataDoNothing"
	hot, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.DS = "DataLeastLoaded"
	spread, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if hot.SiteJobGini <= spread.SiteJobGini {
		t.Fatalf("hotspot Gini %v not above replicated %v", hot.SiteJobGini, spread.SiteJobGini)
	}
	if hot.SiteJobGini <= 0 || hot.SiteJobGini >= 1 {
		t.Fatalf("Gini out of range: %v", hot.SiteJobGini)
	}
}
