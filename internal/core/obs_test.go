package core

import (
	"errors"
	"io"
	"reflect"
	"testing"

	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
)

// runSeries runs cfg with an in-memory series as its sink.
func runSeries(t *testing.T, cfg Config) (Results, *obs.Series) {
	t.Helper()
	s := new(obs.Series)
	cfg.ObsSink = s
	res, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return res, s
}

// TestProbeSeriesContent checks the observability wiring end to end: a
// run with ObsInterval set hands its sink the standard probe set,
// sensible values, and counters consistent with the run's results.
func TestProbeSeriesContent(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalJobs = 300
	cfg.ObsInterval = 120
	res, s := runSeries(t, cfg)
	if len(s.Points) == 0 {
		t.Fatal("ObsInterval set but the series is empty")
	}
	// 9 grid-wide probes + 4 per site.
	if want := 9 + 4*cfg.Sites; len(s.Names) != want {
		t.Fatalf("probe count = %d, want %d", len(s.Names), want)
	}
	jobsDone := s.Column("jobs_done")
	if jobsDone == nil {
		t.Fatal("missing jobs_done probe")
	}
	for i := 1; i < len(jobsDone); i++ {
		if jobsDone[i] < jobsDone[i-1] {
			t.Fatalf("jobs_done counter decreased at point %d: %v", i, jobsDone[:i+1])
		}
	}
	if last := jobsDone[len(jobsDone)-1]; last > float64(res.JobsDone) {
		t.Fatalf("sampled jobs_done %v exceeds final total %d", last, res.JobsDone)
	}
	disp := s.Column("dispatches")
	if last := disp[len(disp)-1]; last > float64(cfg.TotalJobs) {
		t.Fatalf("dispatches %v exceeds total jobs %d", last, cfg.TotalJobs)
	}
	for _, u := range s.Column("s00.cpu_util") {
		if u < 0 || u > 1 {
			t.Fatalf("cpu_util out of range: %v", u)
		}
	}
	for i := 1; i < len(s.Points); i++ {
		if dt := s.Points[i].T - s.Points[i-1].T; dt != cfg.ObsInterval {
			t.Fatalf("sampling cadence %v at point %d, want %v", dt, i, cfg.ObsInterval)
		}
	}
}

// TestProbeSeriesDeterministic checks bit-identical series for a repeated
// seed, and that a sink hears nothing when observability is off.
func TestProbeSeriesDeterministic(t *testing.T) {
	cfg := DefaultConfig()
	cfg.TotalJobs = 300
	cfg.ObsInterval = 120
	a, sa := runSeries(t, cfg)
	_, sb := runSeries(t, cfg)
	if !reflect.DeepEqual(sa, sb) {
		t.Fatal("same seed produced different probe series")
	}

	cfg.ObsInterval = 0
	c, sc := runSeries(t, cfg)
	if sc.Names != nil || sc.Points != nil {
		t.Fatal("observability disabled but the sink was called")
	}
	// Sampling is read-only: headline metrics must not depend on whether
	// probes observed the run.
	if c.AvgResponseSec != a.AvgResponseSec || c.JobsDone != a.JobsDone {
		t.Fatalf("probes changed the simulation: response %v/%d jobs (on) vs %v/%d jobs (off)",
			a.AvgResponseSec, a.JobsDone, c.AvgResponseSec, c.JobsDone)
	}
}

// failingSink fails its Begin when failBegin is set, else its Point
// after ok points, and counts every call it gets.
type failingSink struct {
	failBegin     bool
	ok            int
	begins, pts   int
	callsAfterErr int
	failed        bool
}

var errSinkFull = errors.New("disk full")

func (f *failingSink) Begin([]string, []obs.Kind) error {
	f.begins++
	if f.failBegin {
		f.failed = true
		return errSinkFull
	}
	return nil
}

func (f *failingSink) Point(obs.Point) error {
	if f.failed {
		f.callsAfterErr++
	}
	f.pts++
	if f.pts > f.ok {
		f.failed = true
		return errSinkFull
	}
	return nil
}

// checkFailingSink runs cfg with sink attached and checks that Run
// returns the sink's error, that the sink got no call after it, and that
// the Results equal a sinkless run's.
func checkFailingSink(t *testing.T, sink *failingSink) {
	t.Helper()
	cfg := controlPlaneCfg(5)
	cfg.ObsInterval = 100
	want, err := RunConfig(cfg)
	if err != nil {
		t.Fatal(err)
	}
	cfg.ObsSink = sink
	got, err := RunConfig(cfg)
	if !errors.Is(err, errSinkFull) {
		t.Fatalf("Run returned %v, want the sink's error", err)
	}
	if !sink.failed || sink.callsAfterErr != 0 {
		t.Fatalf("sink failed %v, called %d times after its error", sink.failed, sink.callsAfterErr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Results differ with a failing sink:\ngot:  %+v\nwant: %+v", got, want)
	}
}

// A sink error is sticky: the run goes on, the sink hears nothing after
// its first failure, and Run returns that error with unchanged Results.
func TestSinkErrorSticky(t *testing.T) {
	sink := &failingSink{ok: 2}
	checkFailingSink(t, sink)
	if sink.pts != 3 {
		t.Fatalf("sink got %d points, want the 2 it accepted and the one it failed", sink.pts)
	}
}

// A header failure surfaces as the run's error and no point follows it.
func TestSinkHeaderError(t *testing.T) {
	sink := &failingSink{failBegin: true}
	checkFailingSink(t, sink)
	if sink.begins != 1 || sink.pts != 0 {
		t.Fatalf("sink got %d headers and %d points, want 1 and 0", sink.begins, sink.pts)
	}
}

// TestObsTickAllocatesNothing checks that one observation tick — the
// pass, the registry publish, the sink row and the watchdog — allocates
// nothing, on a run cut while transfers are in flight so the per-link
// reads have flows to sum.
func TestObsTickAllocatesNothing(t *testing.T) {
	cfg := controlPlaneCfg(3)
	cfg.ES = "JobRandom"
	cfg.MaxTime = 2345
	cfg.Metrics = registry.New()
	cfg.Watchdog = watchdog.Fail
	cfg.ObsSink = obs.NewCSVSink(io.Discard)
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if s.finished || s.net.ActiveFlows() == 0 {
		t.Fatalf("run finished %v with %d flows; the cut must leave transfers open", s.finished, s.net.ActiveFlows())
	}
	if n := testing.AllocsPerRun(20, func() { s.obsTick() }); n != 0 {
		t.Fatalf("one observation tick allocates %v times, want 0", n)
	}
}
