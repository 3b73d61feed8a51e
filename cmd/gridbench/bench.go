package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"sync"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/obs"
)

const (
	// profileHz is the traced run's CPU sampling rate: 2 ms per sample
	// resolves a layer that costs a few percent of a seconds-long run.
	profileHz = 500
	// setupPasses is the least number of build-only passes setup_s is the
	// median of.
	setupPasses = 5
	// lapsPerRep splits a single simulation's timed section into laps of
	// this many equal job counts. The host's bursts of load last from
	// milliseconds to seconds; laps of a few milliseconds let calmWall
	// vote out the short ones too.
	lapsPerRep = 1000
	// maxReplayDev is the largest gap, in virtual seconds, allowed between
	// a replayed delivery and the recorded one.
	maxReplayDev = 1e-3
)

// totals sums the Results of every simulation in one repetition.
type totals struct {
	jobs         int // completed or abandoned
	abandoned    int
	events       uint64
	hits, misses int
	evictions    int
	replications int
	dataMB       float64 // sum of AvgDataPerJobMB x JobsDone
}

func (t *totals) add(r core.Results) {
	t.jobs += r.JobsDone + r.JobsFailed
	t.abandoned += r.JobsFailed
	t.events += r.SimEvents
	t.hits += r.CacheHits
	t.misses += r.CacheMisses
	t.evictions += r.Evictions
	t.replications += r.Replications
	t.dataMB += r.AvgDataPerJobMB * float64(r.JobsDone)
}

// rep is one repetition of a workload's timed section.
type rep struct {
	wall     float64       // seconds
	sims     []float64     // wall seconds of each simulation
	units    []float64     // wall seconds of each unit of work every rep repeats (see calmWall)
	rt       runtimeSample // runtime counters over the timed section
	runs     int           // simulations attempted
	failed   int           // simulations that errored, left jobs unaccounted, or failed a check
	problems []string
	shapes   []string // paper-fig3 orderings that do not hold
	digest   string
	tot      totals
}

func (r *rep) fail(format string, args ...any) {
	r.failed++
	r.problems = append(r.problems, fmt.Sprintf(format, args...))
}

// checkRun is the per-simulation correctness check: the run completed and
// every job was either done or abandoned.
func checkRun(res core.Results, wantJobs int) error {
	if !res.Completed {
		return fmt.Errorf("seed %d did not complete", res.Seed)
	}
	if got := res.JobsDone + res.JobsFailed; got != wantJobs {
		return fmt.Errorf("seed %d accounts for %d of %d jobs", res.Seed, got, wantJobs)
	}
	return nil
}

func digestOf(res core.Results) []byte {
	buf, err := json.Marshal(res)
	if err != nil {
		panic(fmt.Sprintf("gridbench: marshal results: %v", err)) // plain data; cannot fail
	}
	sum := sha256.Sum256(buf)
	return sum[:]
}

// runtimeSample holds the runtime/metrics counters the benchmark reads.
type runtimeSample struct {
	allocBytes, allocObjects, gcCycles float64
	gcCPU, userCPU, scavengeCPU        float64
}

var runtimeMetricNames = []string{
	"/gc/heap/allocs:bytes",
	"/gc/heap/allocs:objects",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/user:cpu-seconds",
	"/cpu/classes/scavenge/total:cpu-seconds",
}

func readRuntime() runtimeSample {
	s := make([]metrics.Sample, len(runtimeMetricNames))
	for i, n := range runtimeMetricNames {
		s[i].Name = n
	}
	metrics.Read(s)
	v := make([]float64, len(s))
	for i := range s {
		switch s[i].Value.Kind() {
		case metrics.KindUint64:
			v[i] = float64(s[i].Value.Uint64())
		case metrics.KindFloat64:
			v[i] = s[i].Value.Float64()
		}
	}
	return runtimeSample{v[0], v[1], v[2], v[3], v[4], v[5]}
}

func (a runtimeSample) sub(b runtimeSample) runtimeSample {
	return runtimeSample{
		a.allocBytes - b.allocBytes, a.allocObjects - b.allocObjects, a.gcCycles - b.gcCycles,
		a.gcCPU - b.gcCPU, a.userCPU - b.userCPU, a.scavengeCPU - b.scavengeCPU,
	}
}

func (a runtimeSample) add(b runtimeSample) runtimeSample {
	return runtimeSample{
		a.allocBytes + b.allocBytes, a.allocObjects + b.allocObjects, a.gcCycles + b.gcCycles,
		a.gcCPU + b.gcCPU, a.userCPU + b.userCPU, a.scavengeCPU + b.scavengeCPU,
	}
}

// tracer is the instrumentation of the one traced repetition: a CPU
// profile charged to layers, the wall-stamping recorders (the campaign's
// one shared recorder, or one per simulation), and how busy the workers
// were.
type tracer struct {
	stamps   []*stamp
	layerNs  map[string]int64
	profErr  error
	workers  int
	busy     occupancy
	replay   replayResult
	replayEr error
}

func newTracer() *tracer {
	return &tracer{layerNs: map[string]int64{}, workers: 1}
}

// occupancy integrates the number of busy workers over time. A campaign
// worker raises it in OnRunStart and lowers it through the campaign's
// progress reporter, which it calls as the simulation returns; the
// reporter writes one JSONL record per run to the occupancy.
type occupancy struct {
	mu         sync.Mutex
	running    int
	last       time.Time
	workerSecs float64
}

func (o *occupancy) step(delta int) {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := time.Now()
	if o.running > 0 {
		o.workerSecs += float64(o.running) * now.Sub(o.last).Seconds()
	}
	o.running += delta
	o.last = now
}

// Write implements io.Writer for obs.Progress.JSONLTo.
func (o *occupancy) Write(p []byte) (int, error) {
	o.step(-1)
	return len(p), nil
}

// profile runs fn under the CPU profiler and adds the samples to the
// per-layer totals. StartCPUProfile always asks for 100 Hz, which the
// runtime refuses (and says so on stderr) once the rate is set here.
func (t *tracer) profile(fn func()) {
	var buf bytes.Buffer
	runtime.SetCPUProfileRate(profileHz)
	if err := pprof.StartCPUProfile(&buf); err != nil {
		t.profErr = err
		fn()
		return
	}
	fn()
	pprof.StopCPUProfile()
	p, err := parseCPUProfile(buf.Bytes())
	if err != nil {
		t.profErr = err
		return
	}
	for l, ns := range p.layerNanos() {
		t.layerNs[l] += ns
	}
}

// runRep runs one repetition; tr is nil for the untraced repetitions.
func runRep(w workload, seed uint64, shrink int, tr *tracer) rep {
	if w.single != nil {
		return runSims(w.configs(seed, shrink), tr)
	}
	return runCampaign(w.campaign(seed, shrink), shrink, tr)
}

// runSims runs the simulations one after another and times the sum of
// their Simulation.Run calls; core.New is set-up and is measured by
// setup_s (in a traced repetition it is profiled too, so that topology
// and workload generation show in the layer split). The traced repetition
// replays the first simulation's traffic.
func runSims(cfgs []core.Config, tr *tracer) rep {
	r := rep{runs: len(cfgs)}
	h := sha256.New()
	for i, cfg := range cfgs {
		res, err := runSim(&r, cfg, tr, i == 0)
		if err == nil {
			err = checkRun(res, cfg.TotalJobs)
		}
		if err != nil {
			r.fail("%v", err)
		}
		h.Write(digestOf(res))
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		tr.busy.workerSecs = r.wall
	}
	return r
}

// runSim builds and runs one simulation, adding its wall time, laps and
// counts to r.
func runSim(r *rep, cfg core.Config, tr *tracer, replay bool) (core.Results, error) {
	var sim *core.Simulation
	var err error
	build := func() { sim, err = core.New(cfg) }
	lp := &laps{every: max(1, cfg.TotalJobs/lapsPerRep)}
	var st *stamp
	if tr != nil {
		st = newStamp(replay)
		cfg.Recorder = st
		tr.stamps = append(tr.stamps, st)
		tr.profile(build)
	} else {
		cfg.Recorder = lp
		build()
	}
	if err != nil {
		return core.Results{}, fmt.Errorf("seed %d: build: %w", cfg.Seed, err)
	}
	runtime.GC()
	var res core.Results
	var wall float64
	run := func() {
		before := readRuntime()
		lp.t0 = time.Now()
		res, err = sim.Run()
		wall = time.Since(lp.t0).Seconds()
		r.rt = r.rt.add(readRuntime().sub(before))
	}
	if tr != nil {
		tr.profile(run)
	} else {
		run()
	}
	r.wall += wall
	r.sims = append(r.sims, wall)
	prev := 0.0
	for _, m := range append(lp.marks, wall) {
		r.units = append(r.units, m-prev)
		prev = m
	}
	r.tot.add(res)
	if err != nil {
		return res, fmt.Errorf("seed %d: run: %w", cfg.Seed, err)
	}
	if tr != nil && replay {
		tr.replay, tr.replayEr = replayNetsim(cfg, sim, st.flows)
	}
	return res, nil
}

// cellConfig is the config experiments.Run builds for one cell and seed.
func cellConfig(c experiments.Campaign, cell experiments.Cell, seed uint64) core.Config {
	cfg := c.Base
	cfg.ES, cfg.DS, cfg.BandwidthMBps, cfg.Seed = cell.ES, cell.DS, cell.BandwidthMBps, seed
	return cfg
}

// runCampaign times the whole experiments.Run, pool and results pipeline
// included, and checks every run as its cell completes. Each simulation is
// also timed on its own, from the worker picking it up to the collector
// receiving it.
func runCampaign(c experiments.Campaign, shrink int, tr *tracer) rep {
	r := rep{runs: len(c.Cells) * len(c.Seeds)}
	cellIdx := make(map[experiments.Cell]int, len(c.Cells))
	for i, cell := range c.Cells {
		cellIdx[cell] = i
	}
	seedIdx := make(map[uint64]int, len(c.Seeds))
	for i, s := range c.Seeds {
		seedIdx[s] = i
	}
	simIdx := func(cell experiments.Cell, seed uint64) int { return cellIdx[cell]*len(c.Seeds) + seedIdx[seed] }
	r.sims = make([]float64, r.runs)
	started := make([]time.Time, r.runs)
	var mu sync.Mutex // OnRunStart runs on the worker goroutines
	c.OnRunStart = func(cell experiments.Cell, seed uint64) {
		if tr != nil {
			tr.busy.step(+1)
		}
		mu.Lock()
		started[simIdx(cell, seed)] = time.Now()
		mu.Unlock()
	}
	cellDigest := make([][]byte, len(c.Cells))
	// Both hooks run in the campaign's collector goroutine, one at a time.
	c.OnRunDone = func(cell experiments.Cell, seed uint64, err error) {
		i := simIdx(cell, seed)
		mu.Lock()
		r.sims[i] = time.Since(started[i]).Seconds()
		mu.Unlock()
		if err != nil {
			r.fail("%v seed %d: %v", cell, seed, err)
		}
	}
	c.OnCellDone = func(cr *experiments.CellResult) {
		h := sha256.New()
		for _, res := range cr.Runs {
			r.tot.add(res)
			if err := checkRun(res, c.Base.TotalJobs); err != nil {
				r.fail("%v: %v", cr.Cell, err)
			}
			h.Write(digestOf(res))
		}
		cellDigest[cellIdx[cr.Cell]] = h.Sum(nil)
	}
	if tr != nil {
		st := newStamp(false)
		c.Base.Recorder = st
		tr.stamps = append(tr.stamps, st)
		tr.workers = c.Workers
		c.Progress = obs.NewProgress(nil, "gridbench", r.runs)
		c.Progress.JSONLTo(&tr.busy)
	}
	runtime.GC()
	var results []experiments.CellResult
	run := func() {
		before := readRuntime()
		t0 := time.Now()
		results = experiments.Run(c)
		r.wall = time.Since(t0).Seconds()
		r.rt = readRuntime().sub(before)
	}
	if tr != nil {
		tr.profile(run)
	} else {
		run()
	}
	r.units = []float64{r.wall}
	if shrink == 1 {
		r.shapes = paperShapes(results)
	}
	h := sha256.New()
	for _, d := range cellDigest {
		h.Write(d)
	}
	r.digest = hex.EncodeToString(h.Sum(nil))
	if tr != nil {
		tr.replay, tr.replayEr = replayCampaignSample(c)
	}
	return r
}

// replayCampaignSample records and replays one simulation per cell at the
// campaign's first seed. The campaign's own runs share one recorder across
// workers, so their traffic cannot be told apart; these are run alone.
func replayCampaignSample(c experiments.Campaign) (replayResult, error) {
	var total replayResult
	for _, cell := range c.Cells {
		cfg := cellConfig(c, cell, c.Seeds[0])
		st := newStamp(true)
		cfg.Recorder = st
		sim, err := core.New(cfg)
		if err != nil {
			return total, err
		}
		if _, err := sim.Run(); err != nil {
			return total, err
		}
		rr, err := replayNetsim(cfg, sim, st.flows)
		total.transfers += rr.transfers
		total.wall += rr.wall
		total.maxDev = math.Max(total.maxDev, rr.maxDev)
		if err != nil {
			return total, fmt.Errorf("%v: %w", cell, err)
		}
	}
	return total, nil
}

// paperShapes checks the three orderings TestPaperShapes asserts for the
// paper's Figure 3, on the 30-seed cell means, and returns the ones that
// do not hold.
func paperShapes(results []experiments.CellResult) []string {
	byCell := experiments.ByCell(results)
	get := func(es, ds string) *experiments.CellResult {
		return byCell[experiments.Cell{ES: es, DS: ds, BandwidthMBps: 10}]
	}
	var bad []string
	for _, es := range core.PaperExternalNames() {
		for _, ds := range []string{"DataDoNothing", "DataLeastLoaded"} {
			if cr := get(es, ds); cr == nil || cr.Err != nil {
				return []string{fmt.Sprintf("cell %s+%s missing or failed", es, ds)}
			}
		}
	}
	others := []string{"JobRandom", "JobLeastLoaded"}
	// (1) Without replication JobLocal is best and JobDataPresent worst.
	local, present := get("JobLocal", "DataDoNothing"), get("JobDataPresent", "DataDoNothing")
	for _, es := range append(others, "JobDataPresent") {
		if o := get(es, "DataDoNothing"); local.AvgResponseSec >= o.AvgResponseSec {
			bad = append(bad, fmt.Sprintf("1: JobLocal %.0f s not better than %s %.0f s without replication", local.AvgResponseSec, es, o.AvgResponseSec))
		}
	}
	for _, es := range append(others, "JobLocal") {
		if o := get(es, "DataDoNothing"); present.AvgResponseSec <= o.AvgResponseSec {
			bad = append(bad, fmt.Sprintf("1: JobDataPresent %.0f s not worst vs %s %.0f s without replication", present.AvgResponseSec, es, o.AvgResponseSec))
		}
	}
	// (2) With replication JobDataPresent is best on response, data and
	// idle time, and beats the best pair without replication.
	dp := get("JobDataPresent", "DataLeastLoaded")
	for _, es := range append(others, "JobLocal") {
		o := get(es, "DataLeastLoaded")
		if dp.AvgResponseSec >= o.AvgResponseSec || dp.AvgDataPerJobMB >= o.AvgDataPerJobMB || dp.AvgIdleFrac >= o.AvgIdleFrac {
			bad = append(bad, fmt.Sprintf("2: JobDataPresent (%.0f s, %.0f MB, idle %.2f) not best vs %s (%.0f s, %.0f MB, idle %.2f)",
				dp.AvgResponseSec, dp.AvgDataPerJobMB, dp.AvgIdleFrac, es, o.AvgResponseSec, o.AvgDataPerJobMB, o.AvgIdleFrac))
		}
		// (3) JobDataPresent moves over 400 MB/job less than the others.
		if gap := o.AvgDataPerJobMB - dp.AvgDataPerJobMB; gap <= 400 {
			bad = append(bad, fmt.Sprintf("3: data gap vs %s = %.0f MB, want > 400", es, gap))
		}
	}
	if dp.AvgResponseSec >= local.AvgResponseSec {
		bad = append(bad, fmt.Sprintf("2: JobDataPresent+replication %.0f s does not beat JobLocal without it %.0f s", dp.AvgResponseSec, local.AvgResponseSec))
	}
	return bad
}

// setupSeconds is the wall time of core.New for every simulation of one
// repetition.
func setupSeconds(w workload, seed uint64, shrink int) (float64, error) {
	cfgs := w.configs(seed, shrink)
	runtime.GC()
	t0 := time.Now()
	for _, cfg := range cfgs {
		if _, err := core.New(cfg); err != nil {
			return 0, err
		}
	}
	return time.Since(t0).Seconds(), nil
}

// stat is one metric: its value, and the min and max of the samples
// behind it (statOf takes the median as the value).
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	Min   float64 `json:"min"`
	Max   float64 `json:"max"`
	N     int     `json:"n"`
}

func statOf(unit string, xs []float64) stat {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	st := stat{Unit: unit, N: len(s)}
	if len(s) == 0 {
		return st
	}
	st.Min, st.Max = s[0], s[len(s)-1]
	if len(s)%2 == 1 {
		st.Value = s[len(s)/2]
	} else {
		st.Value = (s[len(s)/2-1] + s[len(s)/2]) / 2
	}
	return st
}

func one(unit string, x float64) stat { return statOf(unit, []float64{x}) }

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
