package main

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
	"time"
)

// metricDef names a metric and its unit. BENCHMARK.json lists the same
// names; the smoke test checks the two agree.
type metricDef struct{ name, unit string }

// endToEndDefs are measured with tracing off.
var endToEndDefs = []metricDef{
	{"jobs_per_s", "1/s"},
	{"setup_s", "s"},
}

// failedRunsFrac is reported beside the end-to-end metrics but is not a
// timing with a bound: it must be 0, and a harness reads it as the
// failed count instead.
const failedRunsFrac = "failed_runs_frac"

// perLayerDefs come from the one traced repetition.
var perLayerDefs = func() []metricDef {
	var defs []metricDef
	for _, l := range layers {
		defs = append(defs, metricDef{l + ".self_ns_per_job", "ns"})
	}
	return append(defs, []metricDef{
		{"es.place_ns_p50", "ns"},
		{"es.place_ns_p99", "ns"},
		{"es.place_growth", "ratio"},
		{"desim.events_per_job", "count"},
		{"desim.events_per_s", "1/s"},
		{"netsim.transfers_per_job", "count"},
		{"netsim.mb_per_job", "MB"},
		{"netsim.replay_ns_per_transfer", "ns"},
		{"netsim.replay_max_dev_s", "s"},
		{"storage.hit_ratio", "ratio"},
		{"storage.evictions_per_job", "count"},
		{"ds.replications_per_job", "count"},
		{"runtime.alloc_bytes_per_job", "B"},
		{"runtime.mallocs_per_job", "count"},
		{"runtime.gc_cpu_frac", "ratio"},
		{"runtime.gc_cycles", "count"},
		{"experiments.run_s_p50", "s"},
		{"experiments.run_s_p95", "s"},
		{"experiments.worker_busy_frac", "ratio"},
		{"bench.trace_overhead_frac", "ratio"},
	}...)
}()

// options selects how much of a workload measure runs.
type options struct {
	seed    uint64
	shrink  int     // divide every job count by this (1 = full size)
	reps    int     // minimum untraced repetitions
	seconds float64 // add repetitions while they fit in this many seconds
	setup   bool    // run the build-only passes behind setup_s
	trace   bool    // add the traced repetition behind the per-layer metrics
}

type check struct {
	Name   string `json:"name"`
	OK     bool   `json:"ok"`
	Detail string `json:"detail,omitempty"`
}

// result is everything measured on one workload.
type result struct {
	Name      string          `json:"name"`
	Why       string          `json:"why"`
	Reps      int             `json:"reps"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	Digest    string          `json:"digest"`
	Checks    []check         `json:"checks"`
	EndToEnd  map[string]stat `json:"end_to_end"`
	PerLayer  map[string]stat `json:"per_layer,omitempty"`
}

func (r *result) check(name string, ok bool, detail string) {
	r.Checks = append(r.Checks, check{Name: name, OK: ok, Detail: detail})
}

// correct reports whether every run and every check passed.
func (r *result) correct() bool {
	for _, c := range r.Checks {
		if !c.OK {
			return false
		}
	}
	return r.Failed == 0
}

// measure runs one workload: the set-up passes, the untraced repetitions,
// and the traced one, then checks the outputs and derives every metric.
func measure(w workload, o options, log io.Writer) result {
	res := result{Name: w.name, Why: w.why, EndToEnd: map[string]stat{}}
	// Build-only passes are spread over the run, two up front and one
	// before each repetition, so that their median samples the machine
	// across the run rather than in one burst.
	var setups []float64
	var setupErr error
	setupPass := func() {
		if !o.setup || setupErr != nil {
			return
		}
		s, err := setupSeconds(w, o.seed, o.shrink)
		if err != nil {
			setupErr = err
			res.check("setup", false, err.Error())
			return
		}
		setups = append(setups, s)
	}
	setupPass()
	setupPass()

	// After the minimum, a repetition is added only if it should end
	// within o.seconds. The count then stays the same from run to run, and
	// so does calmWall's bias: each extra sample lowers a lap's fastest
	// time.
	var reps []rep
	start := time.Now()
	for {
		elapsed := time.Since(start).Seconds()
		if n := len(reps); n > 0 && n >= o.reps && elapsed*float64(n+1)/float64(n) > o.seconds {
			break
		}
		setupPass()
		r := runRep(w, o.seed, o.shrink, nil)
		reps = append(reps, r)
		fmt.Fprintf(log, "%s: rep %d: %.3f s, %d jobs, %.0f jobs/s\n",
			w.name, len(reps), r.wall, r.tot.jobs, safeDiv(float64(r.tot.jobs), r.wall))
	}
	res.Reps = len(reps)
	for len(setups) < setupPasses && o.setup && setupErr == nil {
		setupPass()
	}
	if o.setup {
		fmt.Fprintf(log, "%s: setup %s\n", w.name, fmtSeconds(setups))
	}

	var tr *tracer
	all := reps
	if o.trace {
		tr = newTracer()
		traced := runRep(w, o.seed, o.shrink, tr)
		fmt.Fprintf(log, "%s: traced rep: %.3f s\n", w.name, traced.wall)
		all = append(all, traced)
	}

	var problems, shapes []string
	for _, r := range all {
		res.Attempted += r.runs
		res.Failed += r.failed
		problems = append(problems, r.problems...)
		if len(r.shapes) > 0 {
			// A shape that does not hold indicts the whole campaign.
			res.Failed += r.runs - r.failed
			shapes = r.shapes
		}
	}
	res.check("runs", len(problems) == 0, firstFew(problems))
	if w.campaign != nil && o.shrink == 1 {
		res.check("paper-shapes", len(shapes) == 0, firstFew(shapes))
	}
	res.Digest = all[0].digest
	fmt.Fprintf(log, "%s: results digest %s\n", w.name, res.Digest)
	mismatch := 0
	for _, r := range all[1:] {
		if r.digest != res.Digest {
			mismatch++
			res.Failed += r.runs
		}
	}
	res.check("digest", mismatch == 0, fmt.Sprintf("%d of %d repetitions differ from the first", mismatch, len(all)))

	var jps []float64
	for _, r := range reps {
		jps = append(jps, safeDiv(float64(r.tot.jobs), r.wall))
	}
	// Min and max are per repetition; the value is over the calm wall time.
	jobsPerS := statOf("1/s", jps)
	jobsPerS.Value = safeDiv(float64(reps[0].tot.jobs), calmWall(reps))
	res.EndToEnd["jobs_per_s"] = jobsPerS
	if o.setup {
		res.EndToEnd["setup_s"] = statOf("s", setups)
	}
	res.EndToEnd[failedRunsFrac] = one("ratio", safeDiv(float64(res.Failed), float64(res.Attempted)))

	if tr != nil {
		res.PerLayer = perLayer(tr, all[len(all)-1], reps)
		ok := tr.replayEr == nil && tr.replay.maxDev <= maxReplayDev
		detail := fmt.Sprintf("%d transfers, max deviation %.3g s", tr.replay.transfers, tr.replay.maxDev)
		if tr.replayEr != nil {
			detail = tr.replayEr.Error()
		}
		res.check("netsim-replay", ok, detail)
		if !ok {
			res.Failed++
		}
		res.check("profile", tr.profErr == nil, errString(tr.profErr))
	}
	return res
}

// calmWall estimates one repetition's wall time with outside load voted
// out. Every repetition runs the same seed, so it repeats the same
// deterministic work, split into units: laps of a single simulation, or
// the whole of a campaign, whose simulations interleave across workers
// and are too short to time one by one. Each unit is charged its fastest
// time across repetitions, since a burst of load from outside the process
// only slows the units it overlaps.
func calmWall(reps []rep) float64 {
	n := len(reps[0].units)
	for _, r := range reps {
		if len(r.units) != n {
			return 0 // a repetition failed part-way; the checks report it
		}
	}
	calm := 0.0
	for k := 0; k < n; k++ {
		fastest := math.Inf(1)
		for _, r := range reps {
			fastest = math.Min(fastest, r.units[k])
		}
		calm += fastest
	}
	return calm
}

// perLayer derives the per-layer metrics from the traced repetition; the
// untraced repetitions give the baseline for rates and the overhead.
func perLayer(tr *tracer, traced rep, reps []rep) map[string]stat {
	jobs := float64(traced.tot.jobs)
	perJob := func(x float64) float64 { return safeDiv(x, jobs) }
	m := map[string]stat{}
	for _, l := range layers {
		m[l+".self_ns_per_job"] = one("ns", perJob(float64(tr.layerNs[l])))
	}

	// Growth is per recorder, so each simulation's late decisions are set
	// against its own early ones; the value is the median.
	var place, growth []float64
	transfers := 0
	for _, st := range tr.stamps {
		p := make([]float64, len(st.place))
		for i, d := range st.place {
			p[i] = float64(d.Nanoseconds())
		}
		if n := len(p) / 10; n > 0 {
			growth = append(growth, safeDiv(mean(p[len(p)-n:]), mean(p[:n])))
		}
		place = append(place, p...)
		transfers += st.transfers
	}
	sort.Float64s(place)
	m["es.place_ns_p50"] = one("ns", nearestRank(place, 0.50))
	m["es.place_ns_p99"] = one("ns", nearestRank(place, 0.99))
	m["es.place_growth"] = statOf("ratio", growth)

	t := traced.tot
	m["desim.events_per_job"] = one("count", perJob(float64(t.events)))
	m["desim.events_per_s"] = one("1/s", safeDiv(float64(t.events), calmWall(reps)))
	m["netsim.transfers_per_job"] = one("count", perJob(float64(transfers)))
	m["netsim.mb_per_job"] = one("MB", safeDiv(t.dataMB, float64(t.jobs-t.abandoned)))
	m["netsim.replay_ns_per_transfer"] = one("ns", safeDiv(float64(tr.replay.wall.Nanoseconds()), float64(tr.replay.transfers)))
	m["netsim.replay_max_dev_s"] = one("s", tr.replay.maxDev)
	m["storage.hit_ratio"] = one("ratio", safeDiv(float64(t.hits), float64(t.hits+t.misses)))
	m["storage.evictions_per_job"] = one("count", perJob(float64(t.evictions)))
	m["ds.replications_per_job"] = one("count", perJob(float64(t.replications)))
	// The runtime counters come from the untraced repetitions, so that the
	// recorder's and profiler's own allocations stay out of them.
	var walls, allocs, objects, gcFrac, cycles []float64
	for _, r := range reps {
		walls = append(walls, r.wall)
		allocs = append(allocs, perJob(r.rt.allocBytes))
		objects = append(objects, perJob(r.rt.allocObjects))
		gcFrac = append(gcFrac, safeDiv(r.rt.gcCPU, r.rt.userCPU+r.rt.gcCPU+r.rt.scavengeCPU))
		cycles = append(cycles, r.rt.gcCycles)
	}
	m["runtime.alloc_bytes_per_job"] = statOf("B", allocs)
	m["runtime.mallocs_per_job"] = statOf("count", objects)
	m["runtime.gc_cpu_frac"] = statOf("ratio", gcFrac)
	m["runtime.gc_cycles"] = statOf("count", cycles)

	runs := append([]float64(nil), traced.sims...)
	sort.Float64s(runs)
	m["experiments.run_s_p50"] = one("s", nearestRank(runs, 0.50))
	m["experiments.run_s_p95"] = one("s", nearestRank(runs, 0.95))
	m["experiments.worker_busy_frac"] = one("ratio", safeDiv(tr.busy.workerSecs, float64(tr.workers)*traced.wall))
	m["bench.trace_overhead_frac"] = one("ratio", safeDiv(traced.wall, statOf("s", walls).Value)-1)
	return m
}

// nearestRank returns the nearest-rank q-quantile of sorted values.
func nearestRank(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(i, 0)]
}

func sum(xs []float64) float64 {
	total := 0.0
	for _, x := range xs {
		total += x
	}
	return total
}

func mean(xs []float64) float64 { return sum(xs) / float64(len(xs)) }

func firstFew(xs []string) string {
	if len(xs) > 3 {
		return strings.Join(xs[:3], "; ") + fmt.Sprintf("; and %d more", len(xs)-3)
	}
	return strings.Join(xs, "; ")
}

func errString(err error) string {
	if err == nil {
		return ""
	}
	return err.Error()
}

func fmtSeconds(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.3f s", x)
	}
	return strings.Join(parts, ", ")
}
