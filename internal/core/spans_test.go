package core

import (
	"bytes"
	"encoding/json"
	"math"
	"math/rand/v2"
	"reflect"
	"testing"

	"chicsim/internal/faults"
	"chicsim/internal/trace"
)

// TestDecompositionSumsToResponse is the tentpole's accounting property:
// for every completed job, across seeds and scheduler pairs, the four
// reconstructed phases (retry + data + queue + exec) must tile the
// measured response time exactly — and the online per-run means must
// agree with the offline reconstruction.
func TestDecompositionSumsToResponse(t *testing.T) {
	combos := []struct{ es, ds string }{
		{"JobRandom", "DataDoNothing"},
		{"JobDataPresent", "DataLeastLoaded"},
	}
	for _, combo := range combos {
		for seed := uint64(1); seed <= 3; seed++ {
			cfg := smallConfig()
			cfg.ES, cfg.DS, cfg.Seed = combo.es, combo.ds, seed
			log := trace.NewLog()
			cfg.Recorder = log
			res, err := RunConfig(cfg)
			if err != nil {
				t.Fatal(err)
			}
			f, err := trace.BuildSpans(log)
			if err != nil {
				t.Fatalf("%s+%s seed %d: %v", combo.es, combo.ds, seed, err)
			}
			if len(f.Jobs) != res.JobsDone {
				t.Fatalf("%s+%s seed %d: %d span trees, %d jobs done",
					combo.es, combo.ds, seed, len(f.Jobs), res.JobsDone)
			}
			for _, jt := range f.Jobs {
				d := jt.Decomp
				if d.Retry < 0 || d.Data < 0 || d.Queue < 0 || d.Exec < 0 {
					t.Fatalf("job %d: negative phase in %+v", jt.Job, d)
				}
				if math.Abs(d.Response()-jt.Response()) > 1e-9 {
					t.Fatalf("job %d: phases sum to %v, response %v (%+v)",
						jt.Job, d.Response(), jt.Response(), d)
				}
			}
			// Online means agree with the offline reconstruction and tile
			// the mean response.
			st := f.DecompStats()
			onlineSum := res.AvgDispatchWaitSec + res.AvgDataWaitSec + res.AvgCPUWaitSec + res.AvgExecSec
			if math.Abs(onlineSum-res.AvgResponseSec) > 1e-9 {
				t.Fatalf("online decomposition sums to %v, mean response %v", onlineSum, res.AvgResponseSec)
			}
			for _, pair := range [][2]float64{
				{st.MeanRetry, res.AvgDispatchWaitSec},
				{st.MeanData, res.AvgDataWaitSec},
				{st.MeanQueue, res.AvgCPUWaitSec},
				{st.MeanExec, res.AvgExecSec},
			} {
				if math.Abs(pair[0]-pair[1]) > 1e-6 {
					t.Fatalf("%s+%s seed %d: offline %v vs online %v (stats %+v)",
						combo.es, combo.ds, seed, pair[0], pair[1], st)
				}
			}
		}
	}
}

// TestDataShareCollapsesUnderReplication reproduces §5 qualitatively:
// data-unaware placement without replication is dominated by data wait,
// while JobDataPresent with DataLeastLoaded replication collapses it.
func TestDataShareCollapsesUnderReplication(t *testing.T) {
	share := func(esName, dsName string) float64 {
		cfg := smallConfig()
		cfg.ES, cfg.DS = esName, dsName
		log := trace.NewLog()
		cfg.Recorder = log
		if _, err := RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
		f, err := trace.BuildSpans(log)
		if err != nil {
			t.Fatal(err)
		}
		return f.DecompStats().DataShare
	}
	naive := share("JobRandom", "DataDoNothing")
	decoupled := share("JobDataPresent", "DataLeastLoaded")
	if naive < 0.2 {
		t.Fatalf("JobRandom+DataDoNothing data share %v; expected data-dominated", naive)
	}
	if decoupled > naive/2 {
		t.Fatalf("data share did not collapse: naive %v, JobDataPresent+repl %v", naive, decoupled)
	}
}

// TestFaultedTraceSpansConsistent runs the aggressive fault mix and
// checks that span reconstruction, fault validation, and the critical
// path all hold together on a degraded grid.
func TestFaultedTraceSpansConsistent(t *testing.T) {
	cfg := faultTestConfig(11)
	log := trace.NewLog()
	cfg.Recorder = log
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	f, err := trace.BuildSpans(log)
	if err != nil {
		t.Fatalf("span reconstruction and fault invariants: %v", err)
	}
	if len(f.Jobs) != res.JobsDone || len(f.Abandoned) != res.JobsFailed {
		t.Fatalf("forest %d/%d vs results %d/%d",
			len(f.Jobs), len(f.Abandoned), res.JobsDone, res.JobsFailed)
	}
	for _, jt := range f.Jobs {
		d := jt.Decomp
		if d.Retry < 0 || d.Data < 0 || d.Queue < 0 || d.Exec < 0 {
			t.Fatalf("job %d: negative phase in %+v", jt.Job, d)
		}
		if math.Abs(d.Response()-jt.Response()) > 1e-9 {
			t.Fatalf("job %d: phases sum to %v, response %v", jt.Job, d.Response(), jt.Response())
		}
	}
	if res.JobsRetried > 0 {
		retried := 0
		for _, jt := range f.Jobs {
			retried += jt.Retries
		}
		for _, a := range f.Abandoned {
			retried += a.Retries
		}
		if retried != res.JobsRetried {
			t.Fatalf("span retries %d vs results %d", retried, res.JobsRetried)
		}
	}
	p := f.CriticalPath()
	sum := p.Retry + p.Data + p.Queue + p.Exec + p.Slack
	if math.Abs(sum-p.Length()) > 1e-9 {
		t.Fatalf("critical path components sum to %v, length %v", sum, p.Length())
	}
	var buf bytes.Buffer
	if err := f.WriteChrome(&buf, log); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome export of faulted trace is not valid JSON")
	}
}

// TestFaultHeavyTracesAccepted records fault-heavy runs and requires
// every mode's verdict to accept them. Seed 2 aborts a fetch that
// outlived its source's crash (it streamed a master copy); with outputs
// on, seed 7 aborts one of two output shipments on a route and seed 6 a
// push that ran beside a fetch of the same file on the same route. The
// event counts pin the runs, crash-killed transfers' aborts included;
// seed 7's run is also the one where the DS chose a crashed site as a
// push target, which it must refuse.
func TestFaultHeavyTracesAccepted(t *testing.T) {
	for _, tc := range []struct {
		seed   uint64
		output float64
		events int
	}{{2, 0, 2991}, {7, 0.5, 3616}, {6, 0.5, 3854}} {
		cfg := DefaultConfig()
		cfg.Seed, cfg.TotalJobs, cfg.ES, cfg.OutputFraction = tc.seed, 400, "JobRandom", tc.output
		cfg.Faults = faults.Config{
			SiteCrash:     faults.Spec{MTBF: 2000, MTTR: 600},
			CEFailure:     faults.Spec{MTBF: 1500, MTTR: 300},
			LinkDegrade:   faults.Spec{MTBF: 2500, MTTR: 600},
			LinkOutage:    faults.Spec{MTBF: 4000, MTTR: 300},
			TransferAbort: faults.Spec{MTBF: 300},
			ReplicaLoss:   faults.Spec{MTBF: 800},
			MaxRetries:    2,
		}
		log := trace.NewLog()
		cfg.Recorder = log
		if _, err := RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
		if log.Len() != tc.events {
			t.Fatalf("seed %d: %d events, want %d (the run changed; re-pick the case)", tc.seed, log.Len(), tc.events)
		}
		if _, err := trace.Analyze(log); err != nil {
			t.Errorf("seed %d, output %v: %v", tc.seed, tc.output, err)
		}
		// The DS never pushes to a crashed site; every case runs with
		// outputs on aborts a job-output shipment (file -1).
		down := make(map[int]bool)
		outputAborts := 0
		for _, e := range log.Events() {
			switch e.Kind {
			case trace.SiteCrashed:
				down[e.Site] = true
			case trace.SiteRecovered:
				down[e.Site] = false
			case trace.ReplPush:
				if down[e.Dst] {
					t.Errorf("seed %d: t=%v repl_push of file %d from site %d to site %d, which is down",
						tc.seed, e.T, e.File, e.Src, e.Dst)
				}
			case trace.TransferAbort:
				if e.File == -1 {
					outputAborts++
				}
			}
		}
		if tc.output > 0 && outputAborts == 0 {
			t.Errorf("seed %d: no job-output shipment aborted; re-pick the case", tc.seed)
		}
	}
}

// TestFaultedTracesLogEveryAbort runs random faulted configs and checks
// that the walk accepts every trace and that each Aborted span has its
// own transfer_abort or repl_abort event, crash kills included.
func TestFaultedTracesLogEveryAbort(t *testing.T) {
	r := rand.New(rand.NewPCG(25, 1))
	crashKills := 0 // over all runs, abort instants at which a site crashed
	for i := range 40 {
		cfg := faultTestConfig(uint64(i + 1))
		cfg.ObsInterval = 0
		cfg.Faults.SiteCrash.MTBF = 1000 + 3000*r.Float64()
		cfg.Faults.TransferAbort.MTBF = 300 + 1200*r.Float64()
		cfg.Faults.RestoreReplicas = r.IntN(2) == 0
		cfg.Faults.RequeueOnRecovery = r.IntN(2) == 0
		cfg.OutputFraction = float64(r.IntN(2)) * 0.5
		cfg.LatencyMsPerHop = float64(r.IntN(2)) * 20
		log := trace.NewLog()
		cfg.Recorder = log
		if _, err := RunConfig(cfg); err != nil {
			t.Fatal(err)
		}
		aborts := 0
		abortAt, crashAt := make(map[float64]bool), make(map[float64]bool)
		for _, e := range log.Events() {
			switch e.Kind {
			case trace.TransferAbort, trace.ReplAbort:
				aborts++
				abortAt[e.T] = true
			case trace.SiteCrashed:
				crashAt[e.T] = true
			}
		}
		for at := range abortAt {
			if crashAt[at] {
				crashKills++
			}
		}
		f, err := trace.BuildSpans(log)
		if err != nil {
			t.Fatalf("config %d (%+v): %v", i, cfg.Faults, err)
		}
		aborted := 0
		for _, spans := range [][]*trace.Span{f.Loose, f.Repl} {
			for _, sp := range spans {
				if sp.Aborted {
					aborted++
				}
			}
		}
		if aborted != aborts {
			t.Fatalf("config %d: %d aborted spans for %d abort events", i, aborted, aborts)
		}
	}
	if crashKills == 0 {
		t.Fatal("no run aborted a transfer at a site crash")
	}
}

// TestRecorderDoesNotPerturbResults: attaching a trace recorder must not
// change a single measured number — tracing observes the DGE, it never
// participates in it.
func TestRecorderDoesNotPerturbResults(t *testing.T) {
	for _, faulted := range []bool{false, true} {
		cfg := smallConfig()
		if faulted {
			cfg = faultTestConfig(5)
		}
		plain, err := RunConfig(cfg)
		if err != nil {
			t.Fatal(err)
		}
		traced := cfg
		traced.Recorder = trace.NewLog()
		withRec, err := RunConfig(traced)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(plain, withRec) {
			t.Fatalf("faulted=%v: recorder changed results:\n%+v\n%+v", faulted, plain, withRec)
		}
	}
}
