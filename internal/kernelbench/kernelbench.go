// Package kernelbench holds the simulation-kernel benchmark bodies shared
// between `go test -bench` wrappers (internal/desim, internal/netsim, the
// repo-root suite) and cmd/kernelbench, which runs the same bodies through
// testing.Benchmark and emits BENCH_kernel.json so the kernel's perf
// trajectory is tracked across PRs.
//
// The microbenchmarks target the hot paths ROADMAP calls out: the event
// queue under schedule/cancel churn (the flow-cancellation matrix cancels
// constantly), netsim's reflow on every flow admission and completion,
// and a site's per-file data path. Sim is the end-to-end anchor,
// reporting events/sec.
package kernelbench

import (
	"runtime"
	"testing"
	"time"

	"chicsim/internal/catalog"
	"chicsim/internal/core"
	"chicsim/internal/desim"
	"chicsim/internal/gis"
	"chicsim/internal/job"
	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler/ls"
	"chicsim/internal/site"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
	"chicsim/internal/workload"
)

// EngineChurn measures the event queue under a schedule/cancel-heavy load:
// every iteration cancels one pending event and schedules a replacement,
// with a Step every fourth iteration so the clock advances and the queue
// drains. A pool of self-rescheduling tickers keeps Step fueled.
func EngineChurn(b *testing.B) {
	e := desim.New()
	const lanes = 512
	evs := make([]desim.Event, lanes)
	fn := func() {}
	var tick func()
	tick = func() { e.Schedule(1, tick) }
	for i := 0; i < 64; i++ {
		e.Schedule(1, tick)
	}
	for i := range evs {
		evs[i] = e.Schedule(desim.Time(1+i%61), fn)
	}
	x := uint64(0x9E3779B97F4A7C15) // xorshift: deterministic lane choice
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		idx := int(x % lanes)
		e.Cancel(evs[idx])
		evs[idx] = e.Schedule(desim.Time(1+x%61), fn)
		if i&3 == 0 {
			e.Step()
		}
	}
}

// EngineStep measures steady-state stepping: a fixed population of
// self-rescheduling events, one Step per iteration. With the pooled
// event queue this path must run at 0 allocs/op.
func EngineStep(b *testing.B) {
	e := desim.New()
	const lanes = 256
	for i := 0; i < lanes; i++ {
		d := desim.Time(1 + i%17)
		var fn func()
		fn = func() { e.Schedule(d, fn) }
		e.Schedule(d, fn)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// Reflow returns a benchmark body measuring one flow admission + one flow
// cancellation against a pool of `flows` concurrent background transfers
// on the paper's 30-site hierarchical topology — exactly the two reflow
// passes every transfer start/abort costs the simulation.
func Reflow(policy netsim.SharingPolicy, flows int) func(*testing.B) {
	return func(b *testing.B) {
		eng := desim.New()
		topo, err := topology.NewHierarchical(
			topology.Config{Sites: 30, RegionFanout: 6, Bandwidth: 10e6}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		n := netsim.New(eng, topo, policy)
		const sites = 30
		x := uint64(0x2545F4914F6CDD1D)
		for i := 0; i < flows; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			src := topology.SiteID(x % sites)
			dst := topology.SiteID((x>>32 + 1 + x%sites) % sites)
			if dst == src {
				dst = (dst + 1) % sites
			}
			// Effectively infinite: background flows never complete.
			n.Transfer(src, dst, 1e15, nil)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			f := n.Transfer(topology.SiteID(i%sites), topology.SiteID((i+7)%sites), 1e15, nil)
			n.Cancel(f)
		}
	}
}

// ReflowChurn returns a benchmark body for the churn a data-moving run
// puts on netsim: `flows` background transfers of mixed finite sizes on
// the 1000-site ScaleConfig grid, of which each op cancels a
// pseudo-random one, from anywhere in the admission order, and admits a
// replacement. Reflow only ever cancels the newest flow; this removes
// from the middle, so the removal bookkeeping and the search for the next
// finish are on its path too. EqualShare only: it is the paper's model.
func ReflowChurn(flows int) func(*testing.B) {
	return func(b *testing.B) {
		cfg := ScaleConfig(0)
		topo, err := topology.NewHierarchical(topology.Config{
			Sites:        cfg.Sites,
			RegionFanout: cfg.RegionFanout,
			Bandwidth:    cfg.BandwidthMBps * 1e6,
		}, rng.New(1))
		if err != nil {
			b.Fatal(err)
		}
		n := netsim.New(desim.New(), topo, netsim.EqualShare)
		sites := uint64(cfg.Sites)
		x := uint64(0x2545F4914F6CDD1D)
		next := func() uint64 {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			return x
		}
		admit := func() *netsim.Flow {
			r := next()
			src := r % sites
			dst := (src + 1 + (r>>20)%(sites-1)) % sites
			size := float64(100+(r>>40)%900) * 1e6
			return n.Transfer(topology.SiteID(src), topology.SiteID(dst), size, nil)
		}
		bg := make([]*netsim.Flow, flows)
		for i := range bg {
			bg[i] = admit()
		}
		churn := func() {
			j := next() % uint64(flows)
			n.Cancel(bg[j])
			bg[j] = admit()
		}
		// Grow netsim's buffers to their high-water mark first.
		for i := 0; i < 4*flows; i++ {
			churn()
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			churn()
		}
	}
}

// delayMover lands every fetch a fixed virtual delay after it starts.
type delayMover struct{ eng *desim.Engine }

func (m delayMover) Fetch(_ storage.FileID, _, _ topology.SiteID, _ job.ID, done func()) {
	m.eng.Schedule(5, done)
}

// SiteAccess measures one site's per-file data path at steady state: each
// op enqueues four jobs, each reading one of 40 files whose masters live
// on another site, and runs the engine until they are done: hits pin a
// cached copy, misses fetch it, arrivals cache it and evict from an LRU
// with room for about 25 of the files, completions unpin. Every eighth op
// drains the popularity window, as a DS wake would. No transfer model,
// no ES: only the site, its store and the catalog are on the path.
func SiteAccess(b *testing.B) {
	eng := desim.New()
	topo, err := topology.NewHierarchical(topology.Config{Sites: 4, RegionFanout: 2, Bandwidth: 10e6}, rng.New(1))
	if err != nil {
		b.Fatal(err)
	}
	cat := catalog.New()
	const files = 40
	inputs := make([][]storage.FileID, files)
	for f := range inputs {
		id := storage.FileID(f)
		inputs[f] = []storage.FileID{id}
		if err := cat.DefineFile(id, 1e9*(1+float64(f%7)/7)); err != nil {
			b.Fatal(err)
		}
		cat.Register(id, 3)
	}
	jobs := job.NewStore()
	st, err := site.New(eng, topo, cat, delayMover{eng}, ls.FIFO{}, site.Config{ID: 0, CEs: 4, Capacity: 25 * 1.43e9},
		func(j *job.Job) { jobs.Free(j) })
	if err != nil {
		b.Fatal(err)
	}
	x := uint64(0x2545F4914F6CDD1D)
	op := func(i int) {
		for k := 0; k < 4; k++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			j := jobs.Alloc(job.ID(i), 0, topology.SiteID(x%4), inputs[(x>>8)%files], 60)
			j.Advance(job.Submitted, eng.Now())
			st.Enqueue(j)
		}
		for eng.Step() {
		}
		if i%8 == 0 {
			st.DrainPopularity()
		}
	}
	// Fill the cache and grow every pool to its high-water mark first.
	for i := 0; i < 512; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// GISLeastLoaded measures the stale GIS as JobDataPresent uses it: each op
// asks LeastLoadedHolders for one of 2000 files on a 1000-site grid where
// each file has about 160 holders, most of them tied at the lowest load.
// Every 120th op moves the clock past the 30 s staleness, after changing
// 80 site loads and moving four replicas, so the next query refreshes the
// snapshot and the memo recomputes. Refresh and recompute are both on the
// path; no scheduler, no engine work besides the clock.
func GISLeastLoaded(b *testing.B) {
	const sites, files, holders, window = 1000, 2000, 160, 120
	topo, err := topology.NewStar(sites, 10e6)
	if err != nil {
		b.Fatal(err)
	}
	eng := desim.New()
	cat := catalog.New()
	x := uint64(0x2545F4914F6CDD1D)
	next := func() uint64 {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return x
	}
	// Seven loads in ten are the idle minimum, so a file's tie set is
	// about 110 of its 160 holders.
	loads := make([]int, sites)
	load := func() int {
		if r := next() % 10; r >= 7 {
			return int(r - 6)
		}
		return 0
	}
	for s := range loads {
		loads[s] = load()
	}
	for f := 0; f < files; f++ {
		id := storage.FileID(f)
		if err := cat.DefineFile(id, 1e9); err != nil {
			b.Fatal(err)
		}
		for cat.ReplicaCount(id) < holders {
			cat.Register(id, topology.SiteID(next()%sites))
		}
	}
	svc := gis.New(eng, cat, topo, func(s topology.SiteID) int { return loads[s] }, 30)
	tick := func() {}
	op := func(i int) {
		if i%window == 0 {
			for k := 0; k < 80; k++ {
				loads[next()%sites] = load()
			}
			// Move a replica: the deregister leaves room for the register.
			for k := 0; k < 4; k++ {
				f := storage.FileID(next() % files)
				lst := cat.ReplicaList(f)
				cat.Deregister(f, lst[next()%uint64(len(lst))])
				cat.Register(f, topology.SiteID(next()%sites))
			}
			eng.At(eng.Now()+30, tick)
			eng.Step()
		}
		if len(svc.LeastLoadedHolders(storage.FileID(next()%files))) == 0 {
			b.Fatal("a file lost every holder")
		}
	}
	// Grow the snapshot, memo and change-list buffers first.
	for i := 0; i < 50*window; i++ {
		op(i)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op(i)
	}
}

// Sim is the end-to-end anchor: full default-scenario simulations,
// reporting kernel throughput as events/sec.
func Sim(b *testing.B) {
	cfg := core.DefaultConfig()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events += res.SimEvents
	}
	if s := b.Elapsed().Seconds(); s > 0 {
		b.ReportMetric(float64(events)/s, "events/sec")
	}
}

// ScaleConfig is the fixed large-grid scenario behind SimScale: a
// 1000-site hierarchy, bounded result mode, with only the job count
// varying across tiers. Exported so tests and ad-hoc tooling can run the
// exact benchmark scenario.
func ScaleConfig(jobs int) core.Config {
	cfg := core.DefaultConfig()
	cfg.Sites = 1000
	cfg.RegionFanout = 25
	cfg.Users = 4000
	cfg.Files = 2000
	cfg.TotalJobs = jobs
	cfg.ResultMode = core.ResultModeBounded
	return cfg
}

// SimScale returns a benchmark body running the ScaleConfig scenario at
// the given job count. Beyond events/sec it reports mallocs/job — total
// heap allocations over the run divided by jobs. Because the slab job
// store, pooled flow records, and scheduler scratch buffers make the
// steady-state loop allocation-free, mallocs/job is dominated by one-time
// setup and falls toward zero as the tier grows; a flat or rising curve
// across 10k→1M is a per-job allocation regression. ns/op is build plus
// run; setup-s is core.New alone and run-ns/job the rest, per job.
// events/job is engine events per job, which should stay flat across the
// tiers now that an idle DS books no wakes.
func SimScale(jobs int) func(*testing.B) { return simScale(ScaleConfig(jobs)) }

// SimScaleRandom returns a benchmark body running the ScaleConfig scenario
// with ES = JobRandom. Jobs then land away from their inputs and most
// start a transfer, so netsim's reflow dominates, where SimScale's
// default ES starts almost none.
func SimScaleRandom(jobs int) func(*testing.B) {
	cfg := ScaleConfig(jobs)
	cfg.ES = "JobRandom"
	return simScale(cfg)
}

// WorkloadGenerate returns a benchmark body generating the ScaleConfig
// workload at the given job count: the part of core.New that grows with
// the job count. allocs/op must not grow with it.
func WorkloadGenerate(jobs int) func(*testing.B) {
	cfg := ScaleConfig(jobs)
	spec := cfg.WorkloadSpec()
	return func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := workload.Generate(spec, rng.New(uint64(i+1))); err != nil {
				b.Fatal(err)
			}
		}
	}
}

func simScale(cfg core.Config) func(*testing.B) {
	return func(b *testing.B) {
		var events, mallocs uint64
		var setup time.Duration
		var ms runtime.MemStats
		for i := 0; i < b.N; i++ {
			runtime.ReadMemStats(&ms)
			before := ms.Mallocs
			start := time.Now()
			sim, err := core.New(cfg)
			if err != nil {
				b.Fatal(err)
			}
			setup += time.Since(start)
			res, err := sim.Run()
			if err != nil {
				b.Fatal(err)
			}
			runtime.ReadMemStats(&ms)
			events += res.SimEvents
			mallocs += ms.Mallocs - before
		}
		if s := b.Elapsed().Seconds(); s > 0 {
			b.ReportMetric(float64(events)/s, "events/sec")
		}
		b.ReportMetric(float64(events)/float64(b.N*cfg.TotalJobs), "events/job")
		b.ReportMetric(float64(mallocs)/float64(b.N*cfg.TotalJobs), "mallocs/job")
		b.ReportMetric(setup.Seconds()/float64(b.N), "setup-s")
		b.ReportMetric(float64((b.Elapsed()-setup).Nanoseconds())/float64(b.N*cfg.TotalJobs), "run-ns/job")
	}
}
