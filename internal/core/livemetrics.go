package core

import (
	"fmt"
	"math"

	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/topology"
)

// This file owns the run's single recurring observation event, the
// ObsInterval tick, and wires the live control plane
// (internal/obs/registry, internal/obs/watchdog) into it. Each tick
// samples the probes into Results.Series, publishes to the registry —
// job counters advanced by the change in core's ledger ints since the
// last tick, gauges set from live state — then runs the online invariant
// checks. Only the per-site response histograms and the fault counters
// update inline at their hooks.
//
// Determinism: every registry update is commutative arithmetic on values
// the simulation already maintains; nothing here draws random numbers or
// is read back by scheduling code, and the watchdog checks are read-only
// over simulation state. The tick exists whenever ObsInterval > 0, with
// or without a registry or watchdog, so a run with metrics + watchdog
// attached fires the same events and produces byte-identical Results to
// a run without them (regression test:
// TestControlPlaneDoesNotPerturbResults).

// respBuckets are the upper bounds (seconds) of the per-site response
// histograms. Roughly geometric around the paper's ~300–600 s job scale.
var respBuckets = []float64{60, 120, 300, 600, 1200, 2400, 4800, 9600, 19200, 38400, 76800}

// ledgerCounter mirrors one of core's monotone ledger ints into a
// registry counter: each sync adds the change since the previous one.
// Adds commute, so a registry shared by a campaign's concurrent
// simulations still ends at the exact total.
type ledgerCounter struct {
	c    registry.Counter
	src  *int
	sent int
}

func (lc *ledgerCounter) sync() {
	if d := *lc.src - lc.sent; d > 0 {
		lc.c.Add(float64(d))
		lc.sent = *lc.src
	}
}

// simMetrics holds the registry handles one simulation updates. All
// handle types are no-ops in their zero value, so hook sites need no
// enable checks; the per-site slices are nil when metrics are off and
// guarded at their (few) call sites.
type simMetrics struct {
	ledgers []ledgerCounter

	jobsRunning     registry.Gauge
	jobsQueued      registry.Gauge
	jobsDataWaiting registry.Gauge
	inflightFlows   registry.Gauge
	sitesDown       registry.Gauge
	virtualTime     registry.Gauge
	linkLoadMax     registry.Gauge
	linkBacklog     registry.Gauge

	faultsByClass *registry.CounterVec

	queueDepth  []registry.Gauge     // per site
	busyCEs     []registry.Gauge     // per site
	storageUsed []registry.Gauge     // per site
	replicas    []registry.Gauge     // per site
	respBySite  []registry.Histogram // per site
}

// registerMetrics registers (idempotently) the standard metric families
// on cfg.Metrics and binds this simulation's handles. Under a campaign,
// many concurrent simulations share one registry: counters and
// histograms merge deterministically (the updates commute); gauges are
// last-write-wins across workers and meaningful mainly for single-run
// monitoring.
func (s *Simulation) registerMetrics(reg *registry.Registry) {
	jobs := reg.Counter("sim_jobs_total",
		"Job lifecycle transitions by state.", "state")
	s.lm.ledgers = []ledgerCounter{
		{c: jobs.With("submitted"), src: &s.jobsSubmitted},
		{c: jobs.With("done"), src: &s.jobsDone},
		{c: jobs.With("retried"), src: &s.jobsRetried},
		{c: jobs.With("abandoned"), src: &s.jobsFailed},
		{c: reg.Counter("sim_dispatches_total",
			"Jobs handed to a site by the external/batch scheduler.").With(), src: &s.dispatches},
		{c: reg.Counter("sim_replications_total",
			"Dataset-scheduler replica pushes issued.").With(), src: &s.replications},
	}

	s.lm.jobsRunning = reg.Gauge("sim_jobs_running",
		"Jobs occupying a compute element right now.").With()
	s.lm.jobsQueued = reg.Gauge("sim_jobs_queued",
		"Jobs waiting in site queues.").With()
	s.lm.jobsDataWaiting = reg.Gauge("sim_jobs_data_waiting",
		"Queued jobs still waiting on at least one input transfer.").With()
	s.lm.inflightFlows = reg.Gauge("sim_inflight_transfers",
		"Wide-area transfers currently moving bytes.").With()
	s.lm.sitesDown = reg.Gauge("sim_sites_down",
		"Sites currently crashed.").With()
	s.lm.virtualTime = reg.Gauge("sim_virtual_time_seconds",
		"Current virtual time of the simulation.").With()
	s.lm.linkLoadMax = reg.Gauge("sim_link_load_max_frac",
		"Most loaded link: sum of flow rates over effective bandwidth.").With()
	s.lm.linkBacklog = reg.Gauge("sim_link_backlog_bytes",
		"Bytes still to deliver, summed over links crossed.").With()

	s.lm.faultsByClass = reg.Counter("sim_faults_total",
		"Faults applied and repairs completed, by class.", "class")

	qd := reg.Gauge("sim_queue_depth", "Jobs queued at the site.", "site")
	bc := reg.Gauge("sim_busy_ces", "Busy compute elements at the site.", "site")
	su := reg.Gauge("sim_storage_used_bytes", "Bytes resident at the site.", "site")
	rc := reg.Gauge("sim_replicas", "Files resident at the site.", "site")
	rh := reg.Histogram("sim_response_seconds",
		"Job response time (submit to completion).", respBuckets, "site")
	n := len(s.sites)
	s.lm.queueDepth = make([]registry.Gauge, n)
	s.lm.busyCEs = make([]registry.Gauge, n)
	s.lm.storageUsed = make([]registry.Gauge, n)
	s.lm.replicas = make([]registry.Gauge, n)
	s.lm.respBySite = make([]registry.Histogram, n)
	for i := 0; i < n; i++ {
		sv := fmt.Sprintf("%d", i)
		s.lm.queueDepth[i] = qd.With(sv)
		s.lm.busyCEs[i] = bc.With(sv)
		s.lm.storageUsed[i] = su.With(sv)
		s.lm.replicas[i] = rc.With(sv)
		s.lm.respBySite[i] = rh.With(sv)
	}
}

// syncMetrics publishes the ledger counters and the current grid state
// into the registry. All reads are the same accessors the probe layer
// already uses.
func (s *Simulation) syncMetrics() {
	for i := range s.lm.ledgers {
		s.lm.ledgers[i].sync()
	}
	running, queued, waiting, down := 0, 0, 0, 0
	for i, st := range s.sites {
		b, q := st.Busy(), st.QueueLen()
		running += b
		queued += q
		waiting += st.DataWaitingJobs()
		if st.Down() {
			down++
		}
		s.lm.queueDepth[i].Set(float64(q))
		s.lm.busyCEs[i].Set(float64(b))
		s.lm.storageUsed[i].Set(st.Store().Used())
		s.lm.replicas[i].Set(float64(st.Store().Len()))
	}
	s.lm.jobsRunning.Set(float64(running))
	s.lm.jobsQueued.Set(float64(queued))
	s.lm.jobsDataWaiting.Set(float64(waiting))
	s.lm.inflightFlows.Set(float64(s.net.ActiveFlows()))
	s.lm.sitesDown.Set(float64(down))
	s.lm.virtualTime.Set(float64(s.eng.Now()))

	loads := s.net.LinkLoads()
	maxFrac, backlog := 0.0, 0.0
	for l, load := range loads {
		if bw := s.net.EffectiveBandwidth(topology.LinkID(l)); bw > 0 {
			if frac := load / bw; frac > maxFrac {
				maxFrac = frac
			}
		}
	}
	for _, b := range s.net.LinkBacklogBytes() {
		backlog += b
	}
	s.lm.linkLoadMax.Set(maxFrac)
	s.lm.linkBacklog.Set(backlog)
}

// registerWatchdog installs the invariant checks on s.wd. Every check is
// a read-only closure over simulation state, evaluated between events on
// the obs tick.
func (s *Simulation) registerWatchdog() {
	s.wd.Register("job_conservation", func() string {
		// Between events, every submitted job is in exactly one place:
		// batch buffer, a site queue, a compute element, awaiting a retry
		// backoff, completed, or abandoned.
		queued, running := 0, 0
		for _, st := range s.sites {
			queued += st.QueueLen()
			running += st.Busy()
		}
		done := s.jobsDone + s.wdSkewDone // wdSkewDone is a test-only fault seed
		accounted := done + s.jobsFailed + queued + running + len(s.batchBuf) + s.retryPending
		if accounted != s.jobsSubmitted {
			return fmt.Sprintf("submitted %d != accounted %d (done %d, abandoned %d, queued %d, running %d, batched %d, retry-pending %d)",
				s.jobsSubmitted, accounted, done, s.jobsFailed, queued, running, len(s.batchBuf), s.retryPending)
		}
		return ""
	})
	s.wd.Register("replica_accounting", func() string {
		// The grid-wide catalog and each site's own store must agree on
		// what is resident where (transient staging is registered in
		// neither).
		for i, st := range s.sites {
			if cat, res := s.cat.CountAt(topology.SiteID(i)), st.Store().Len(); cat != res {
				return fmt.Sprintf("site %d: catalog says %d replicas, store holds %d", i, cat, res)
			}
		}
		return ""
	})
	s.wd.Register("storage_capacity", func() string {
		if s.cfg.StorageGB <= 0 {
			return ""
		}
		capBytes := s.cfg.StorageGB * 1e9
		for i, st := range s.sites {
			if used := st.Store().Used(); used > capBytes*(1+1e-9) {
				return fmt.Sprintf("site %d: %.0f bytes resident exceeds capacity %.0f", i, used, capBytes)
			}
		}
		return ""
	})
	s.wd.Register("link_capacity", func() string {
		for l, load := range s.net.LinkLoads() {
			bw := s.net.EffectiveBandwidth(topology.LinkID(l))
			if load > bw*(1+1e-6)+1e-6 {
				return fmt.Sprintf("link %d: flow rates sum to %.0f B/s over capacity %.0f B/s", l, load, bw)
			}
		}
		return ""
	})
	s.wd.Register("counters_monotone", func() string {
		if s.jobsDone < 0 || s.jobsFailed < 0 || s.retryPending < 0 {
			return fmt.Sprintf("negative ledger: done %d, abandoned %d, retry-pending %d",
				s.jobsDone, s.jobsFailed, s.retryPending)
		}
		if math.IsNaN(float64(s.eng.Now())) {
			return "virtual time is NaN"
		}
		return ""
	})
}

// attachObsTick books the run's one recurring observation event. Each
// tick samples the probes into Series, then publishes to the registry and
// runs the watchdog; the recurrence ends with the workload (or at a
// Fail-mode violation), so the engine can drain.
func (s *Simulation) attachObsTick() {
	s.eng.Every(s.cfg.ObsInterval, func() bool {
		if s.finished {
			return false
		}
		s.probes.Sample(s.eng.Now())
		return s.publish()
	})
}

// publish syncs the registry and runs one watchdog pass. It reports
// false once a Fail-mode violation has stopped the run.
func (s *Simulation) publish() bool {
	if s.lmOn {
		s.syncMetrics()
	}
	if s.wd != nil && s.wdErr == nil {
		if err := s.wd.Tick(float64(s.eng.Now())); err != nil {
			s.wdErr = err
			s.eng.Stop()
		}
	}
	return s.wdErr == nil
}

// finishControlPlane publishes once more at the end of the run (the tick
// stops with the workload, so without this the registry would be one
// interval stale) and records the violation count.
func (s *Simulation) finishControlPlane(r *Results) {
	s.publish()
	if s.wd != nil {
		r.WatchdogViolations = s.wd.Count()
	}
}

// newWatchdog builds the simulation's watchdog from the config.
func newWatchdog(cfg Config) *watchdog.Watchdog {
	if cfg.Watchdog == watchdog.Off {
		return nil
	}
	return watchdog.New(watchdog.Config{Mode: cfg.Watchdog, OnViolation: cfg.OnViolation})
}
