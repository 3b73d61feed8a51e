package core

import (
	"fmt"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/faults"
	"chicsim/internal/gis"
	"chicsim/internal/job"
	"chicsim/internal/metrics"
	"chicsim/internal/netsim"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/scheduler/feedback"
	"chicsim/internal/site"
	"chicsim/internal/stats"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
	"chicsim/internal/trace"
	"chicsim/internal/workload"
)

// Results are the outputs of one Data Grid execution (DGE).
type Results struct {
	metrics.Results

	ES, LS, DS    string
	Seed          uint64
	BandwidthMBps float64

	TotalCEs       int
	Completed      bool // false when MaxTime aborted the run
	CacheHits      int
	CacheMisses    int
	Evictions      int
	FetchesStarted int
	Replications   int // DS pushes actually issued
	DSDeletions    int // DS-initiated replica deletions (DSDeleteAfter)
	SimEvents      uint64
	// SimEndTime is the virtual time when the engine drained, at the
	// run's last event. Trailing idle DS wakes do not extend it: a DS with
	// nothing to act on books no wake (see dsRebook).
	SimEndTime float64

	// SiteJobGini measures how unevenly completed jobs concentrated over
	// sites (0 = even, →1 = one hotspot). High values under
	// JobDataPresent without replication are the paper's hotspot effect.
	SiteJobGini float64

	// Link utilization over the run (fraction of time each link carried
	// at least one transfer), split by tier.
	MeanLinkUtil     float64
	MaxLinkUtil      float64
	BackboneLinkUtil float64 // mean over root↔region links
	AccessLinkUtil   float64 // mean over region↔site links

	// WatchdogViolations counts online invariant violations observed by
	// the watchdog over the run (0 when the watchdog is off or the run
	// was healthy; see Config.Watchdog).
	WatchdogViolations int `json:"watchdog_violations,omitempty"`

	// Fault-injection outcome (all zero on failure-free runs). Faults
	// counts what the injector did to the grid; the recovery counters
	// record what the scheduling layers did about it.
	Faults             faults.Stats
	JobsRetried        int // ES resubmissions of failed jobs
	JobsFailed         int // jobs abandoned after exhausting retries
	TransfersRestarted int // input fetches re-issued after an abort/crash
	ReplicasRestored   int // DS re-replications of fault-lost popular files
}

// Simulation is a fully assembled Data Grid ready to Run. Build one with
// New and Run it once: a second Run is refused. A Runner runs a sequence
// of simulations, each built in the memory of the one before.
type Simulation struct {
	cfg   Config
	eng   *desim.Engine
	topo  *topology.Topology
	net   *netsim.Network
	cat   *catalog.Catalog
	gis   *gis.Service
	wl    *workload.Workload // Config.Trace, or genWL
	genWL *workload.Workload // the generated workload's memory; never a caller's trace

	sites    []*site.Site
	policies []scheduler.External // the ES instances: one per site, user, or the central one
	esFor    []scheduler.External // indexed by user
	dsch     scheduler.Dataset

	batch    scheduler.Batch // non-nil in batch-scheduling mode
	batchBuf []*job.Job      // submissions awaiting the next batch window

	collector *metrics.Collector
	view      scheduler.GridView

	jobs *job.Store // slab job storage; slots recycle at completion

	// Prebuilt callbacks for the recurring engine events, so the steady
	// state schedules without allocating a closure per event.
	submitFns    []func()    // per user: closed-loop submitNext
	arriveFns    []func()    // per user: open-model submit + rebook
	dsWakeFns    []func()    // per site: dsWake
	dsIdleAt     []float64   // per site: time of the wake after which the DS went dormant; -1 while a wake is booked
	transferPool []*transfer // recycled transfer records

	nextJob      []int // per-user index of next job to submit
	jobsDone     int
	totalJobs    int
	finished     bool
	busyIntegral float64
	totalCEs     int

	pushesInFlight map[pushKey]bool
	replications   int
	dsDeletions    int
	dispatches     int // ES/batch dispatch hook-point counter

	pass *obsPass // the observation pass's state; nil unless cfg.ObsInterval > 0

	// Feedback-scheduling telemetry (see internal/scheduler/feedback).
	// Nil unless a feedback policy is configured; all hooks are nil-safe.
	fb       *feedback.Tracker
	fbParams feedback.Params

	// Live control plane (see livemetrics.go): the per-site response
	// histograms, updated inline, nil unless cfg.Metrics is set; wd is
	// nil when the watchdog is off.
	respBySite    []registry.Histogram // per site
	wd            *watchdog.Watchdog
	wdErr         error
	jobsSubmitted int // jobs entered into the system (the conservation ledger's left side)
	retryPending  int // failed jobs waiting out a retry backoff

	// Fault injection (see faults.go in this package). All nil/zero
	// unless cfg.Faults enables at least one fault class.
	fcfg               faults.Config // normalized
	retry              faults.RetryPolicy
	faultRoot          *rng.Source
	injector           *faults.Injector
	liveFlows          map[int]*transfer         // in-flight transfers, by flow id
	lostAt             [][]scheduler.PopularFile // per site: popular replicas lost to faults
	jobsFailed         int
	jobsRetried        int
	transfersRestarted int
	replicasRestored   int

	rec trace.Recorder

	arrivalSrc *rng.Source // think-time / open-arrival draws

	ran bool
}

type pushKey struct {
	file   storage.FileID
	target topology.SiteID
}

// mover implements site.DataMover over the network, attributing traffic to
// job-driven fetches and crediting the source site's popularity tracker.
type mover struct{ s *Simulation }

func (m mover) Fetch(f storage.FileID, from, to topology.SiteID, requester job.ID, done func()) {
	size, ok := m.s.cat.Size(f)
	if !ok {
		panic(fmt.Sprintf("core: fetch of undefined file %d", f))
	}
	if from != to {
		m.s.sites[from].RecordRemoteRequest(f, to)
	}
	m.s.startTransfer(fetchFlow, f, requester, from, to, size, done)
}

// view adapts the GIS + network to the scheduler.GridView interface. When
// regional information scoping is on, viewer (-1 = global) restricts the
// replica view to that site's region plus master locations.
type view struct {
	s      *Simulation
	viewer topology.SiteID
}

func (v view) NumSites() int                { return v.s.topo.NumSites() }
func (v view) Load(sid topology.SiteID) int { return v.s.gis.Load(sid) }
func (v view) CEs(sid topology.SiteID) int  { return v.s.sites[sid].CEs() }
func (v view) Replicas(f storage.FileID) []topology.SiteID {
	if v.viewer >= 0 {
		return v.s.gis.ReplicasVisibleTo(f, v.viewer)
	}
	return v.s.gis.Replicas(f)
}
func (v view) LeastLoadedHolders(f storage.FileID) []topology.SiteID {
	if v.viewer >= 0 {
		return scheduler.LeastLoadedSet(v.Load, v.s.gis.ReplicasVisibleTo(f, v.viewer), nil)
	}
	return v.s.gis.LeastLoadedHolders(f)
}
func (v view) HasReplica(f storage.FileID, sid topology.SiteID) bool {
	if v.viewer >= 0 {
		for _, r := range v.s.gis.ReplicasVisibleTo(f, v.viewer) {
			if r == sid {
				return true
			}
		}
		return false
	}
	return v.s.gis.HasReplica(f, sid)
}
func (v view) FileSize(f storage.FileID) float64 { return v.s.gis.FileSize(f) }
func (v view) Topology() *topology.Topology      { return v.s.topo }
func (v view) Congestion(a, b topology.SiteID) int {
	return v.s.net.CongestionOn(a, b)
}
func (v view) PredictTransfer(a, b topology.SiteID, size float64) float64 {
	return v.s.net.PredictTime(a, b, size)
}

// New assembles a simulation from the config.
func New(cfg Config) (*Simulation, error) {
	s := new(Simulation)
	if err := s.build(cfg); err != nil {
		return nil, err
	}
	return s, nil
}

// Runner runs simulations one after another. It keeps the last finished
// Simulation and builds the next one in its memory: every component is
// reset in place and keeps the arrays, pools and slabs it grew, so a run
// no bigger than the one before allocates almost nothing. A campaign
// worker owns one Runner. The zero Runner is ready to use; it is not safe
// for concurrent use.
type Runner struct{ sim *Simulation }

// Run builds and runs one simulation, with the same Results as
// RunConfig(cfg). Nothing in the Results shares memory with the Runner,
// so they stay valid across later runs.
func (r *Runner) Run(cfg Config) (Results, error) {
	if r.sim == nil {
		r.sim = new(Simulation)
	} else {
		r.sim.reset()
	}
	if err := r.sim.build(cfg); err != nil {
		return Results{}, err
	}
	return r.sim.Run()
}

// reset readies a finished (or failed) simulation to be built again. The
// struct literal carries the components and buffers a run grows, the
// buffers cut to length 0, and leaves every other field zero, so no
// counter, flag or caller-owned input (Config.Trace, Recorder, Metrics,
// the watchdog and the observation pass) passes from one run to the
// next. build resets each carried component in place.
func (s *Simulation) reset() {
	clear(s.pushesInFlight)
	clear(s.esFor)
	clear(s.batchBuf)
	*s = Simulation{
		eng:            s.eng,
		net:            s.net,
		cat:            s.cat,
		gis:            s.gis,
		genWL:          s.genWL,
		sites:          s.sites[:0],
		policies:       s.policies[:0],
		esFor:          s.esFor[:0],
		dsch:           s.dsch,
		batchBuf:       s.batchBuf[:0],
		collector:      s.collector,
		jobs:           s.jobs,
		submitFns:      s.submitFns[:0],
		arriveFns:      s.arriveFns[:0],
		dsWakeFns:      s.dsWakeFns[:0],
		dsIdleAt:       s.dsIdleAt[:0],
		transferPool:   s.transferPool,
		nextJob:        s.nextJob[:0],
		pushesInFlight: s.pushesInFlight,
	}
}

// reuse returns p, or a new zero T when p is nil: build resets each
// component in place, in an earlier run's memory when there is one.
func reuse[T any](p *T) *T {
	if p == nil {
		return new(T)
	}
	return p
}

// upTo returns buf with length n, keeping what its array holds past
// len(buf) from an earlier, longer use; entries never used are zero.
func upTo[T any](buf []T, n int) []T {
	if cap(buf) < n {
		buf = append(buf[:cap(buf)], make([]T, n-cap(buf))...)
	}
	return buf[:n]
}

// build assembles the simulation of cfg into s, which is new or reset.
func (s *Simulation) build(cfg Config) error {
	if err := cfg.Validate(); err != nil {
		return err
	}
	s.cfg = cfg
	s.rec = cfg.Recorder
	if s.rec == nil {
		s.rec = trace.Discard
	}
	s.eng = reuse(s.eng)
	s.eng.Reset()
	s.cat = reuse(s.cat)
	s.cat.Reset()
	if s.pushesInFlight == nil {
		s.pushesInFlight = make(map[pushKey]bool)
	}
	root := rng.New(cfg.Seed)

	var err error
	if len(cfg.Tiers) > 0 {
		bws := []float64{cfg.BandwidthMBps * 1e6}
		if len(cfg.TierBandwidthsMBps) > 0 {
			bws = bws[:0]
			for _, b := range cfg.TierBandwidthsMBps {
				bws = append(bws, b*1e6)
			}
		}
		s.topo, err = topology.NewTiered(cfg.Tiers, bws)
	} else {
		s.topo, err = topology.NewHierarchical(topology.Config{
			Sites:             cfg.Sites,
			RegionFanout:      cfg.RegionFanout,
			Bandwidth:         cfg.BandwidthMBps * 1e6,
			BackboneBandwidth: cfg.BackboneMBps * 1e6,
		}, root.Derive("topology"))
	}
	if err != nil {
		return err
	}
	s.net = reuse(s.net)
	s.net.Reset(s.eng, s.topo, cfg.Sharing)
	if cfg.LatencyMsPerHop > 0 {
		s.net.SetLatencyPerHop(cfg.LatencyMsPerHop / 1000)
	}

	if cfg.Trace != nil {
		s.wl = cfg.Trace
	} else {
		s.genWL = reuse(s.genWL)
		if err := s.genWL.Regenerate(cfg.WorkloadSpec(), root.Derive("workload")); err != nil {
			return err
		}
		s.wl = s.genWL
	}
	s.totalJobs = s.wl.TotalJobs()
	if cfg.ResultMode == ResultModeBounded {
		// The reservoir draws from its own derived sub-stream; Derive does
		// not perturb root, so every other named stream is identical to
		// full mode.
		s.collector = metrics.NewBounded(root.Derive("results"))
	} else {
		s.collector = reuse(s.collector)
		s.collector.Reset(s.totalJobs)
	}
	for f, size := range s.wl.FileSizes {
		if err := s.cat.DefineFile(storage.FileID(f), size); err != nil {
			return err
		}
	}

	lsched, err := NewLocal(cfg.LS)
	if err != nil {
		return err
	}
	rearmDS := func(sid topology.SiteID) { s.dsRearm(int(sid)) }
	evicted := func(sid topology.SiteID, f storage.FileID) {
		s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.Evicted, File: int(f), Site: int(sid)})
	}
	ceSrc := root.Derive("ces")
	speedSrc := root.Derive("speeds")
	jobDone := s.jobDone
	s.sites = upTo(s.sites, cfg.Sites)
	for i := range s.sites {
		ces := ceSrc.IntRange(cfg.MinCEs, cfg.MaxCEs)
		s.totalCEs += ces
		speed := 1.0
		if cfg.CPUSpreadFrac > 0 {
			speed = speedSrc.Range(1-cfg.CPUSpreadFrac, 1+cfg.CPUSpreadFrac)
		}
		s.sites[i] = reuse(s.sites[i])
		err := s.sites[i].Reset(s.eng, s.topo, s.cat, mover{s}, lsched, site.Config{
			ID:           topology.SiteID(i),
			CEs:          ces,
			Speed:        speed,
			Capacity:     cfg.StorageGB * 1e9,
			OnEvict:      evicted,
			OnWindowOpen: rearmDS,
		}, jobDone)
		if err != nil {
			return err
		}
	}
	for f, master := range s.wl.MasterSite {
		if err := s.sites[master].InstallMaster(storage.FileID(f), s.wl.FileSizes[f]); err != nil {
			return err
		}
	}

	s.gis = reuse(s.gis)
	s.gis.Reset(s.eng, s.cat, s.topo, func(sid topology.SiteID) int {
		return s.sites[sid].QueueLen()
	}, cfg.InfoStaleness)
	for f, master := range s.wl.MasterSite {
		s.gis.SetMaster(storage.FileID(f), master)
	}
	s.view = view{s: s, viewer: -1}

	if cfg.ES == "JobFeedback" || cfg.DS == "DataFeedback" {
		s.fbParams = cfg.Feedback
		s.fbParams.Normalize()
		s.fb = feedback.NewTracker(s.fbParams, s.topo, s.eng.Now)
	}

	avgCompute := cfg.ComputePerGB * (cfg.MinFileGB + cfg.MaxFileGB) / 2 * float64(cfg.InputsPerJob)
	avgCEs := float64(cfg.MinCEs+cfg.MaxCEs) / 2
	s.esFor = upTo(s.esFor, cfg.Users)
	esRoot := root.Derive("es")
	var stream func(k int) string // the name of policy k's random stream
	switch cfg.Mapping {
	case ESPerSite:
		s.policies = upTo(s.policies, cfg.Sites)
		stream = func(k int) string { return fmt.Sprintf("site-%d", k) }
	case ESCentral:
		s.policies = upTo(s.policies, 1)
		stream = func(int) string { return "central" }
	case ESPerUser:
		s.policies = upTo(s.policies, cfg.Users)
		stream = func(k int) string { return fmt.Sprintf("user-%d", k) }
	default:
		return fmt.Errorf("core: unknown ES mapping %v", cfg.Mapping)
	}
	for k, prev := range s.policies {
		s.policies[k], err = reuseExternal(prev, cfg.ES, esRoot.Derive(stream(k)), avgCompute, avgCEs)
		if err != nil {
			return err
		}
		s.wireFeedback(s.policies[k])
	}
	var central scheduler.External
	if cfg.Mapping == ESCentral {
		central = hostedES{inner: s.policies[0], host: 0}
	}
	for u := range s.esFor {
		switch cfg.Mapping {
		case ESPerSite:
			s.esFor[u] = s.policies[s.wl.UserHome[u]]
		case ESCentral:
			s.esFor[u] = central
		case ESPerUser:
			s.esFor[u] = s.policies[u]
		}
	}

	s.dsch, err = reuseDataset(s.dsch, cfg.DS, root.Derive("ds"))
	if err != nil {
		return err
	}
	if fds, ok := s.dsch.(*feedback.DS); ok {
		fds.Tracker = s.fb
		fds.Params = s.fbParams
	}
	if cfg.BatchES != "" {
		s.batch, err = NewBatch(cfg.BatchES, avgCompute)
		if err != nil {
			return err
		}
	}

	s.fcfg = cfg.Faults.Normalized()
	s.retry = cfg.Faults.Retry()
	if s.fcfg.Enabled() {
		s.faultRoot = root.Derive("faults")
		s.liveFlows = make(map[int]*transfer)
		s.lostAt = make([][]scheduler.PopularFile, cfg.Sites)
		// Every ES gains the retry contract: never re-place a job on the
		// site it just failed on. Fresh jobs pass through untouched, and
		// Derive leaves the parent stream unperturbed, so a failure-free
		// workload is byte-identical with or without the wrapper.
		retrySrc := esRoot.Derive("retry")
		for u := range s.esFor {
			s.esFor[u] = es.AvoidFailed{Inner: s.esFor[u], Src: retrySrc}
		}
	}

	s.nextJob = upTo(s.nextJob, cfg.Users)
	clear(s.nextJob)
	s.arrivalSrc = root.Derive("arrivals")
	s.jobs = reuse(s.jobs)
	s.jobs.Reset()
	// The callbacks close over s and an index only, so those an earlier
	// run built are kept.
	s.submitFns = upTo(s.submitFns, cfg.Users)
	s.arriveFns = upTo(s.arriveFns, cfg.Users)
	for u := range s.submitFns {
		if s.submitFns[u] == nil {
			uid := job.UserID(u)
			s.submitFns[u] = func() { s.submitNext(uid) }
			s.arriveFns[u] = func() { s.submitNext(uid); s.scheduleArrival(uid) }
		}
	}
	s.dsWakeFns = upTo(s.dsWakeFns, cfg.Sites)
	s.dsIdleAt = upTo(s.dsIdleAt, cfg.Sites)
	for i := range s.dsWakeFns {
		if s.dsWakeFns[i] == nil {
			i := i
			s.dsWakeFns[i] = func() { s.dsWake(i) }
		}
		s.dsIdleAt[i] = -1
	}
	if cfg.ObsInterval > 0 {
		s.attachObservation()
	}
	if s.wd = newWatchdog(cfg); s.wd != nil {
		s.registerWatchdog()
	}
	return nil
}

// wireFeedback attaches the simulation's telemetry tracker and feedback
// params to a freshly constructed feedback ES (a no-op for every other
// policy, and for feedback instances on runs without a tracker).
func (s *Simulation) wireFeedback(e scheduler.External) {
	if fes, ok := e.(*feedback.ES); ok {
		fes.Tracker = s.fb
		fes.Params = s.fbParams
	}
}

// telemetry assembles one feedback tracker sample from live state (not
// the GIS snapshot). Strictly read-only, so sampling perturbs nothing but
// the engine's event count.
func (s *Simulation) telemetry() feedback.Sample {
	q := make([]int, len(s.sites))
	for i, st := range s.sites {
		q[i] = st.QueueLen()
	}
	return feedback.Sample{
		Now:          s.eng.Now(),
		QueueLens:    q,
		LinkLoads:    s.net.LinkLoads(nil),
		LinkBacklog:  s.net.LinkBacklogBytes(nil),
		LinkCapacity: s.net.EffectiveBandwidths(),
		GISAge:       s.gis.SnapshotAge(),
	}
}

// hostedES reinterprets "local" as the scheduler's host site, used for the
// central-ES mapping: a job "runs locally" at the central scheduler's own
// site rather than the user's.
type hostedES struct {
	inner scheduler.External
	host  topology.SiteID
}

func (h hostedES) Name() string { return h.inner.Name() }
func (h hostedES) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	saved := j.Origin
	j.Origin = h.host
	target := h.inner.Place(g, j)
	j.Origin = saved
	return target
}

// Run executes the simulation to completion (or MaxTime) and returns the
// results. It may be called once.
func (s *Simulation) Run() (Results, error) {
	if s.ran {
		return Results{}, fmt.Errorf("core: Simulation is single-use; construct a new one")
	}
	s.ran = true

	if s.fcfg.Enabled() {
		s.injector = faults.Attach(s.eng, s.fcfg, s.faultRoot, faultOps{s},
			func() bool { return !s.finished })
	}

	if s.cfg.ArrivalRate > 0 {
		// Open model: every user's submissions form a Poisson process,
		// decoupled from completions.
		for u := range s.nextJob {
			s.scheduleArrival(job.UserID(u))
		}
	} else {
		// Closed model (the paper): first submission at t = 0, next one
		// on completion of the previous.
		for u := range s.nextJob {
			s.eng.Schedule(0, s.submitFns[u])
		}
	}
	if s.pass != nil {
		s.attachObsTick()
	}
	if s.fb != nil {
		// Prime the tracker at t = 0 (queues empty, links idle) so the
		// first placements already see Ready() telemetry, then sample on
		// the feedback interval.
		s.fb.Observe(s.telemetry())
		s.eng.Every(s.fbParams.Interval, func() bool {
			if s.finished {
				return false
			}
			s.fb.Observe(s.telemetry())
			return true
		})
	}
	if s.batch != nil {
		s.eng.Schedule(s.cfg.BatchWindow, s.flushBatch)
	}

	// Inject configured network failures (validated at construction).
	for _, d := range s.cfg.Degradations {
		d := d
		var links []topology.LinkID
		for _, l := range s.topo.Links() {
			if !d.BackboneOnly || s.topo.IsBackbone(l.ID) {
				links = append(links, l.ID)
			}
		}
		s.eng.At(d.At, func() {
			for _, l := range links {
				s.net.SetLinkBandwidth(l, d.Multiplier*s.topo.Link(l).Bandwidth)
			}
		})
		s.eng.At(d.At+d.Duration, func() {
			for _, l := range links {
				s.net.SetLinkBandwidth(l, -1)
			}
		})
	}

	// Start the per-site Dataset Scheduler loops, staggered across the
	// first interval so wake-ups don't all collide at the same instant.
	for i := range s.sites {
		offset := s.cfg.DSInterval * float64(i+1) / float64(len(s.sites))
		s.eng.Schedule(offset, s.dsWakeFns[i])
	}

	if s.cfg.MaxTime > 0 {
		s.eng.RunUntil(s.cfg.MaxTime)
	} else {
		s.eng.Run()
	}

	if !s.finished {
		// Aborted by MaxTime: settle busy integrals now for best-effort
		// reporting.
		for _, st := range s.sites {
			s.busyIntegral += st.BusyIntegral(s.eng.Now())
		}
	}
	esName := s.cfg.ES
	if s.batch != nil {
		esName = s.cfg.BatchES
	}
	r := Results{
		Results:        s.collector.Summarize(s.busyIntegral, s.totalCEs),
		ES:             esName,
		LS:             s.cfg.LS,
		DS:             s.cfg.DS,
		Seed:           s.cfg.Seed,
		BandwidthMBps:  s.cfg.BandwidthMBps,
		TotalCEs:       s.totalCEs,
		Completed:      s.finished,
		FetchesStarted: 0,
		Replications:   s.replications,
		DSDeletions:    s.dsDeletions,
		SimEvents:      s.eng.Fired(),
		SimEndTime:     s.eng.Now(),

		JobsRetried:        s.jobsRetried,
		JobsFailed:         s.jobsFailed,
		TransfersRestarted: s.transfersRestarted,
		ReplicasRestored:   s.replicasRestored,
	}
	if s.injector != nil {
		r.Faults = s.injector.Stats()
	}
	for _, st := range s.sites {
		h, m := st.Store().HitRate()
		r.CacheHits += h
		r.CacheMisses += m
		r.Evictions += st.Store().Evictions()
		r.FetchesStarted += st.FetchesStarted()
	}
	if g, err := stats.Gini(s.collector.SiteJobCounts(len(s.sites))); err == nil {
		r.SiteJobGini = g
	}
	util := s.net.LinkUtilization()
	var nBack, nAcc int
	for i, u := range util {
		r.MeanLinkUtil += u
		if u > r.MaxLinkUtil {
			r.MaxLinkUtil = u
		}
		if s.topo.IsBackbone(topology.LinkID(i)) {
			r.BackboneLinkUtil += u
			nBack++
		} else {
			r.AccessLinkUtil += u
			nAcc++
		}
	}
	if len(util) > 0 {
		r.MeanLinkUtil /= float64(len(util))
	}
	if nBack > 0 {
		r.BackboneLinkUtil /= float64(nBack)
	}
	if nAcc > 0 {
		r.AccessLinkUtil /= float64(nAcc)
	}
	s.finishControlPlane(&r)
	if s.wdErr != nil {
		return r, s.wdErr
	}
	if !s.finished && s.cfg.MaxTime <= 0 {
		return r, fmt.Errorf("core: engine drained with %d/%d jobs accounted for (deadlock?)",
			s.jobsDone+s.jobsFailed, s.totalJobs)
	}
	if s.pass != nil && s.pass.sinkErr != nil {
		// The simulation itself is fine; the requested stream is not.
		return r, s.pass.sinkErr
	}
	return r, nil
}

// submitNext submits user u's next job, if any.
func (s *Simulation) submitNext(u job.UserID) {
	idx := s.nextJob[u]
	if idx >= s.wl.Count(int(u)) {
		return
	}
	s.nextJob[u]++
	spec := s.wl.Job(int(u), idx)
	j := s.jobs.Alloc(spec.ID, u, s.wl.UserHome[u], spec.Inputs, spec.Compute)
	j.Advance(job.Submitted, s.eng.Now())
	s.jobsSubmitted++
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobSubmitted, Job: int(j.ID), User: int(u)})
	s.route(j)
}

// route hands a fresh or retried job to the external scheduling layer:
// the batch buffer in batch mode, otherwise an immediate placement by the
// user's ES. Retried jobs need no special case: on faulted runs the ES is
// wrapped in es.AvoidFailed, so the target differs from the failed site.
func (s *Simulation) route(j *job.Job) {
	if s.batch != nil {
		s.batchBuf = append(s.batchBuf, j)
		return
	}
	placeView := s.view
	if s.cfg.RegionalInfo {
		placeView = view{s: s, viewer: s.wl.UserHome[j.User]}
	}
	target := s.esFor[j.User].Place(placeView, j)
	if target < 0 || int(target) >= len(s.sites) {
		panic(fmt.Sprintf("core: ES %s placed job %d at invalid site %d", s.cfg.ES, j.ID, target))
	}
	s.dispatch(j, target)
}

// dispatch enqueues j at target. The scheduler's information is
// liveness-blind (like the GIS), so a down target is a placement failure
// that burns a retry.
func (s *Simulation) dispatch(j *job.Job, target topology.SiteID) {
	if s.sites[target].Down() {
		s.failJob(j, target)
		return
	}
	s.dispatches++
	s.fb.NoteDispatch(target)
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobDispatched, Job: int(j.ID), Site: int(target)})
	s.sites[target].Enqueue(j)
}

// jobDone fires when any site completes a job: record metrics, let the
// user submit their next job, and detect end-of-workload.
func (s *Simulation) jobDone(j *job.Job) {
	s.collector.JobDone(j)
	// Lifecycle events are flushed at completion with their true virtual
	// timestamps; trace.Log sorts on output.
	if j.DataReady >= 0 {
		s.rec.Record(trace.Event{T: j.DataReady, Kind: trace.JobDataReady, Job: int(j.ID)})
	}
	s.rec.Record(trace.Event{T: j.StartTime, Kind: trace.JobStarted, Job: int(j.ID), Site: int(j.Site)})
	s.rec.Record(trace.Event{T: j.EndTime, Kind: trace.JobCompleted, Job: int(j.ID), Site: int(j.Site), User: int(j.User)})
	s.shipOutput(j)
	s.jobsDone++
	if s.respBySite != nil {
		s.respBySite[j.Site].Observe(float64(j.ResponseTime()))
	}
	// Everything that needed the job has read it (the collector and trace
	// copy what they keep): recycle the slot before driving the next
	// submission, which may reuse it immediately.
	user := j.User
	s.jobs.Free(j)
	if s.workloadSettled() {
		return
	}
	s.driveUser(user)
}

// workloadSettled marks the run finished once every job is accounted for
// — completed or (on faulted runs) abandoned — and settles the busy-time
// integrals at that instant.
func (s *Simulation) workloadSettled() bool {
	if s.jobsDone+s.jobsFailed < s.totalJobs {
		return false
	}
	s.finished = true
	for _, st := range s.sites {
		s.busyIntegral += st.BusyIntegral(s.eng.Now())
	}
	return true
}

// driveUser advances the closed-loop workload for one user after their
// current job reached a terminal state (done or abandoned).
func (s *Simulation) driveUser(u job.UserID) {
	if s.cfg.ArrivalRate > 0 {
		return // open model: submissions are driven by the arrival process
	}
	if s.cfg.ThinkTimeMean > 0 {
		s.eng.Schedule(s.arrivalSrc.Exp(s.cfg.ThinkTimeMean), s.submitFns[u])
		return
	}
	s.submitNext(u)
}

// shipOutput moves a completed job's output back to the submitting site
// when the output-cost extension is enabled. The shipment is asynchronous:
// it contends for bandwidth and is accounted as traffic, but does not
// extend the job's response time (the user has their answer; the bytes
// follow).
func (s *Simulation) shipOutput(j *job.Job) {
	if s.cfg.OutputFraction <= 0 || j.Site == j.Origin {
		return
	}
	bytes := 0.0
	for _, f := range j.Inputs {
		if size, ok := s.cat.Size(f); ok {
			bytes += size
		}
	}
	bytes *= s.cfg.OutputFraction
	if bytes <= 0 {
		return
	}
	s.startTransfer(outputFlow, -1, j.ID, j.Site, j.Origin, bytes, nil)
}

// scheduleArrival drives the open-model Poisson submission process for one
// user: submit now, then book the next arrival.
func (s *Simulation) scheduleArrival(u job.UserID) {
	if s.nextJob[u] >= s.wl.Count(int(u)) {
		return
	}
	s.eng.Schedule(s.arrivalSrc.Exp(1/s.cfg.ArrivalRate), s.arriveFns[u])
}

// flushBatch assigns all buffered submissions with the batch heuristic and
// dispatches them, then books the next window.
func (s *Simulation) flushBatch() {
	if s.finished {
		return
	}
	if len(s.batchBuf) > 0 {
		jobs := s.batchBuf
		s.batchBuf = nil
		targets := s.batch.Assign(s.view, jobs)
		if len(targets) != len(jobs) {
			panic(fmt.Sprintf("core: batch scheduler %s returned %d targets for %d jobs",
				s.batch.Name(), len(targets), len(jobs)))
		}
		for i, j := range jobs {
			t := targets[i]
			if t < 0 || int(t) >= len(s.sites) {
				panic(fmt.Sprintf("core: batch scheduler placed job %d at invalid site %d", j.ID, t))
			}
			s.dispatch(j, t)
		}
	}
	s.eng.Schedule(s.cfg.BatchWindow, s.flushBatch)
}

// dsWake runs one Dataset Scheduler cycle at site i and reschedules itself
// while the workload is still running.
func (s *Simulation) dsWake(i int) {
	if s.finished {
		return
	}
	st := s.sites[i]
	if st.Down() {
		// The DS process is down with its site; it resumes (with an empty
		// popularity window) at the first wake-up after recovery.
		s.dsRebook(i)
		return
	}
	all := st.DrainPopularity()
	popular := all[:0]
	for _, p := range all {
		if p.Count >= s.cfg.DSThreshold {
			popular = append(popular, p)
		}
	}
	if len(popular) > 0 {
		dsView := s.view
		if s.cfg.RegionalInfo {
			dsView = view{s: s, viewer: topology.SiteID(i)}
		}
		for _, rep := range s.dsch.Decide(dsView, topology.SiteID(i), popular) {
			s.pushReplica(topology.SiteID(i), rep)
		}
	}
	if s.cfg.DSDeleteAfter > 0 {
		s.dsDeletions += st.AgeIdleReplicas(all, s.cfg.DSDeleteAfter)
	}
	if len(s.lostAt) > 0 && len(s.lostAt[i]) > 0 {
		s.restoreReplicas(i)
	}
	s.dsRebook(i)
}

// dsRebook books site i's next DS wake one interval from now, unless the
// next wake would have nothing to act on: an empty popularity window, no
// lost replica to restore and no deletion role. Such a DS goes dormant
// instead, and dsRearm wakes it when there is work again.
func (s *Simulation) dsRebook(i int) {
	if s.cfg.DSDeleteAfter == 0 && s.sites[i].WindowEmpty() && (len(s.lostAt) == 0 || len(s.lostAt[i]) == 0) {
		s.dsIdleAt[i] = s.eng.Now()
		return
	}
	s.eng.Schedule(s.cfg.DSInterval, s.dsWakeFns[i])
}

// dsRearm books a dormant DS's next wake where a DS that never slept
// would have its next one: the first grid point after the wake it went
// dormant at that is still to come, ordered among same-instant events as
// if booked by the skipped wake one interval earlier. The grid is stepped
// by repeated addition, the float sums one Schedule per interval would
// have produced, so the wake lands at exactly that time. A finished run
// never re-arms.
func (s *Simulation) dsRearm(i int) {
	prev := s.dsIdleAt[i]
	if prev < 0 || s.finished {
		return
	}
	s.dsIdleAt[i] = -1
	now := s.eng.Now()
	at := prev + s.cfg.DSInterval
	for at < now {
		prev, at = at, at+s.cfg.DSInterval
	}
	if _, ok := s.eng.AtAsOf(at, prev, s.dsWakeFns[i]); !ok {
		// The skipped wake at this instant has already gone by, empty.
		s.eng.AtAsOf(at+s.cfg.DSInterval, at, s.dsWakeFns[i])
	}
}

// pushReplica executes one DS decision: an asynchronous replica push from
// `from` to rep.Target. The source copy is pinned for the duration of the
// transfer.
func (s *Simulation) pushReplica(from topology.SiteID, rep scheduler.Replication) {
	if rep.Target == from || int(rep.Target) < 0 || int(rep.Target) >= len(s.sites) {
		return
	}
	if !s.sites[from].Store().Peek(rep.File) {
		return // no longer resident here
	}
	if s.cat.HasReplica(rep.File, rep.Target) {
		return
	}
	key := pushKey{rep.File, rep.Target}
	if s.pushesInFlight[key] {
		return
	}
	size, ok := s.cat.Size(rep.File)
	if !ok {
		return
	}
	if s.sites[rep.Target].Down() {
		return // a push landing before recovery would cache onto a crashed site
	}
	if err := s.sites[from].Store().Pin(rep.File); err != nil {
		return
	}
	s.pushesInFlight[key] = true
	s.replications++
	s.startTransfer(pushFlow, rep.File, -1, from, rep.Target, size, nil)
}

// Engine exposes the underlying engine (e.g. for embedding the simulation
// in a larger experiment loop). Read-only use only.
func (s *Simulation) Engine() *desim.Engine { return s.eng }

// Workload returns the workload being executed, with Jobs filled in: a
// generated workload is materialised on each call, so it is not for the
// run path.
func (s *Simulation) Workload() *workload.Workload {
	w := *s.wl
	w.Jobs = s.wl.Materialize()
	return &w
}

// RunConfig builds and runs a simulation in one call.
func RunConfig(cfg Config) (Results, error) {
	sim, err := New(cfg)
	if err != nil {
		return Results{}, err
	}
	return sim.Run()
}
