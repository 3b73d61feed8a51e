package core

import (
	"fmt"
	"math"
	"strconv"

	"chicsim/internal/faults"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/topology"
)

// This file owns the run's single recurring observation event, the
// ObsInterval tick. Each tick runs one observation pass (observe), which
// reads every observed quantity once and writes the probe row from that
// read, handed to Config.ObsSink, and, when Config.Metrics is set, the
// live registry (internal/obs/registry) from the same value: gauges are
// set, counters advance by the change since the previous publish. Then
// the watchdog (internal/obs/watchdog) runs the online invariant checks.
// Only the per-site response histograms and the fault counters update
// inline at their hooks. A tick allocates nothing: the row and the
// per-link buffers are reused.
//
// Determinism: every registry update is arithmetic on values the
// simulation already maintains; nothing here draws random numbers or is
// read back by scheduling code, and the watchdog checks are read-only
// over simulation state. The tick exists whenever ObsInterval > 0, with
// or without a registry or watchdog, so a run with metrics + watchdog
// attached fires the same events and produces byte-identical Results to
// a run without them (regression test:
// TestControlPlaneDoesNotPerturbResults).

// respBuckets are the upper bounds (seconds) of the per-site response
// histograms. Roughly geometric around the paper's ~300–600 s job scale.
var respBuckets = []float64{60, 120, 300, 600, 1200, 2400, 4800, 9600, 19200, 38400, 76800}

// family is one registry metric family: its name, help string and label
// name ("" for none).
type family struct{ name, help, label string }

// labels returns f's label names and the label values lv fills them with.
func (f family) labels(lv string) (names, values []string) {
	if f.label == "" {
		return nil, nil
	}
	return []string{f.label}, []string{lv}
}

// obsPass carries one observation pass's values to the sink and the
// registry. The first pass, at construction, declares: it records each
// probe column's name and kind and registers each metric family, so
// column and family order follow the order of the calls in observe.
// Later passes write values only.
type obsPass struct {
	declaring bool
	names     []string
	kinds     []obs.Kind
	row       []float64 // this pass's probe row, reused by every pass

	sink    obs.Sink // Config.ObsSink; nil once it has failed
	sinkErr error    // the sink's first error

	reg      *registry.Registry // nil unless Config.Metrics is set
	gauges   []registry.Gauge   // in call order
	counters []registry.Counter // in call order
	sent     []float64          // per counter: the running total last published
	g, c     int                // this pass's next gauge and counter

	queue, busy   []int     // per site: this pass's reads, for the sums and the site columns
	load, backlog []float64 // per link: this pass's reads, reused by the link_capacity check
}

// column writes one probe column.
func (o *obsPass) column(name string, kind obs.Kind, v float64) {
	if o.declaring {
		o.names = append(o.names, name)
		o.kinds = append(o.kinds, kind)
	}
	o.row = append(o.row, v)
}

// gauge sets the series of gauge family f with label value lv to v.
func (o *obsPass) gauge(f family, lv string, v float64) {
	if o.reg == nil {
		return
	}
	if o.declaring {
		names, values := f.labels(lv)
		o.gauges = append(o.gauges, o.reg.Gauge(f.name, f.help, names...).With(values...))
		return
	}
	o.gauges[o.g].Set(v)
	o.g++
}

// counter advances the series of counter family f with label value lv by
// the change in the running total v since the previous publish.
func (o *obsPass) counter(f family, lv string, v float64) {
	if o.reg == nil {
		return
	}
	if o.declaring {
		names, values := f.labels(lv)
		o.counters = append(o.counters, o.reg.Counter(f.name, f.help, names...).With(values...))
		o.sent = append(o.sent, 0)
		return
	}
	if d := v - o.sent[o.c]; d > 0 {
		o.counters[o.c].Add(d)
		o.sent[o.c] = v
	}
	o.c++
}

// attachObservation declares the observed quantities with a first pass
// and hands their columns to the sink.
func (s *Simulation) attachObservation() {
	n := len(s.sites)
	o := &obsPass{declaring: true, reg: s.cfg.Metrics, queue: make([]int, n), busy: make([]int, n)}
	s.pass = o
	s.observe(o)
	o.declaring = false
	if sink := s.cfg.ObsSink; sink != nil {
		if err := sink.Begin(o.names, o.kinds); err != nil {
			o.sinkErr = fmt.Errorf("obs: sink header: %w", err)
		} else {
			o.sink = sink
		}
	}
}

// emit hands this pass's row, taken at virtual time t, to the sink. The
// first error drops the sink and is kept for Run to return.
func (o *obsPass) emit(t float64) {
	if o.sink == nil {
		return
	}
	if err := o.sink.Point(obs.Point{T: t, Values: o.row}); err != nil {
		o.sink = nil
		o.sinkErr = fmt.Errorf("obs: sink point: %w", err)
	}
}

// observe runs one observation pass: it reads every observed quantity
// once and hands it to o as a probe column, a registry gauge or
// counter, or both. The row holds nine grid-wide columns, nine more on
// faulted runs, then four per site; fixed call order keeps its columns
// stable across runs, so the output is byte-comparable.
// Quantities only the registry exports are read only when it is set.
func (s *Simulation) observe(o *obsPass) {
	prom, faulted := o.reg != nil, s.fcfg.Enabled()
	o.row, o.g, o.c = o.row[:0], 0, 0

	running, queued, waiting, down, failedCEs, evictions := 0, 0, 0, 0, 0, 0
	for i, st := range s.sites {
		o.queue[i], o.busy[i] = st.QueueLen(), st.Busy()
		queued += o.queue[i]
		running += o.busy[i]
		evictions += st.Store().Evictions()
		if prom {
			waiting += st.DataWaitingJobs()
		}
		if (prom || faulted) && st.Down() {
			down++
		}
		if faulted {
			failedCEs += st.CEs() - st.AvailableCEs()
		}
	}

	jobs := family{"sim_jobs_total", "Job lifecycle transitions by state.", "state"}
	done, retried, failed := float64(s.jobsDone), float64(s.jobsRetried), float64(s.jobsFailed)
	o.column("jobs_done", obs.CounterKind, done)
	o.counter(jobs, "done", done)
	if prom {
		o.counter(jobs, "submitted", float64(s.jobsSubmitted))
	}
	o.counter(jobs, "retried", retried)
	o.counter(jobs, "abandoned", failed)
	o.column("dispatches", obs.CounterKind, float64(s.dispatches))
	o.counter(family{"sim_dispatches_total",
		"Jobs handed to a site by the external/batch scheduler.", ""}, "", float64(s.dispatches))
	o.column("replications", obs.CounterKind, float64(s.replications))
	o.counter(family{"sim_replications_total",
		"Dataset-scheduler replica pushes issued.", ""}, "", float64(s.replications))
	o.column("ds_deletions", obs.CounterKind, float64(s.dsDeletions))
	o.column("evictions", obs.CounterKind, float64(evictions))
	o.column("jobs_running", obs.GaugeKind, float64(running))
	o.gauge(family{"sim_jobs_running", "Jobs occupying a compute element right now.", ""}, "", float64(running))
	o.column("jobs_queued", obs.GaugeKind, float64(queued))
	o.gauge(family{"sim_jobs_queued", "Jobs waiting in site queues.", ""}, "", float64(queued))
	o.gauge(family{"sim_jobs_data_waiting",
		"Queued jobs still waiting on at least one input transfer.", ""}, "", float64(waiting))
	flows := float64(s.net.ActiveFlows())
	o.column("inflight_transfers", obs.GaugeKind, flows)
	o.gauge(family{"sim_inflight_transfers", "Wide-area transfers currently moving bytes.", ""}, "", flows)
	o.column("gis_staleness_s", obs.GaugeKind, s.gis.SnapshotAge())
	if faulted {
		// Fault columns exist only on faulted runs, keeping the default
		// column set (and its regression tests) untouched. The injector
		// is attached in Run, after the declaring pass.
		var fs faults.Stats
		if s.injector != nil {
			fs = s.injector.Stats()
		}
		o.column("faults_injected", obs.CounterKind, float64(fs.FaultsInjected))
		o.column("faults_repaired", obs.CounterKind, float64(fs.Repairs))
		o.column("jobs_retried", obs.CounterKind, retried)
		o.column("jobs_failed", obs.CounterKind, failed)
		o.column("transfers_restarted", obs.CounterKind, float64(s.transfersRestarted))
		o.column("replicas_lost", obs.CounterKind, float64(fs.ReplicasLost))
		o.column("replicas_restored", obs.CounterKind, float64(s.replicasRestored))
		o.column("sites_down", obs.GaugeKind, float64(down))
		o.column("ces_failed", obs.GaugeKind, float64(failedCEs))
	}
	o.gauge(family{"sim_sites_down", "Sites currently crashed.", ""}, "", float64(down))
	if prom {
		o.gauge(family{"sim_virtual_time_seconds",
			"Current virtual time of the simulation.", ""}, "", float64(s.eng.Now()))
		maxFrac, backlog := 0.0, 0.0
		o.load = s.net.LinkLoads(o.load)
		o.backlog = s.net.LinkBacklogBytes(o.backlog)
		for l, load := range o.load {
			if bw := s.net.EffectiveBandwidth(topology.LinkID(l)); bw > 0 {
				if frac := load / bw; frac > maxFrac {
					maxFrac = frac
				}
			}
		}
		for _, b := range o.backlog {
			backlog += b
		}
		o.gauge(family{"sim_link_load_max_frac",
			"Most loaded link: sum of flow rates over effective bandwidth.", ""}, "", maxFrac)
		o.gauge(family{"sim_link_backlog_bytes",
			"Bytes still to deliver, summed over links crossed.", ""}, "", backlog)
	}
	if o.declaring && prom {
		// Updated inline at the fault hooks; registered here to keep the
		// family order.
		s.faultsByClass = o.reg.Counter("sim_faults_total",
			"Faults applied and repairs completed, by class.", "class")
	}

	queueDepth := family{"sim_queue_depth", "Jobs queued at the site.", "site"}
	busyCEs := family{"sim_busy_ces", "Busy compute elements at the site.", "site"}
	storageUsed := family{"sim_storage_used_bytes", "Bytes resident at the site.", "site"}
	replicas := family{"sim_replicas", "Files resident at the site.", "site"}
	for i, st := range s.sites {
		var col, lv string // site i's column prefix and label value, only the declaring pass names them
		if o.declaring {
			col, lv = fmt.Sprintf("s%02d.", i), strconv.Itoa(i)
		}
		used, files := st.Store().Used(), float64(st.Store().Len())
		o.column(col+"queue_len", obs.GaugeKind, float64(o.queue[i]))
		o.gauge(queueDepth, lv, float64(o.queue[i]))
		o.column(col+"cpu_util", obs.GaugeKind, float64(o.busy[i])/float64(st.CEs()))
		o.gauge(busyCEs, lv, float64(o.busy[i]))
		o.column(col+"storage_gb", obs.GaugeKind, used/1e9)
		o.gauge(storageUsed, lv, used)
		o.column(col+"replicas", obs.GaugeKind, files)
		o.gauge(replicas, lv, files)
	}
	if o.declaring && prom {
		// Observed inline at job completion.
		rh := o.reg.Histogram("sim_response_seconds",
			"Job response time (submit to completion).", respBuckets, "site")
		s.respBySite = make([]registry.Histogram, len(s.sites))
		for i := range s.respBySite {
			s.respBySite[i] = rh.With(strconv.Itoa(i))
		}
	}
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
		s.pass.load = s.net.LinkLoads(s.pass.load)
		for l, load := range s.pass.load {
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

// attachObsTick books the run's one recurring observation event, which
// ends with the workload (or at a Fail-mode violation), so the engine can
// drain.
func (s *Simulation) attachObsTick() {
	s.eng.Every(s.cfg.ObsInterval, s.obsTick)
}

// obsTick runs the observation pass, hands its row to the sink and runs
// the watchdog. It reports false once the recurrence is to end.
func (s *Simulation) obsTick() bool {
	if s.finished {
		return false
	}
	s.observe(s.pass)
	s.pass.emit(s.eng.Now())
	return s.checkInvariants()
}

// checkInvariants runs one watchdog pass. It reports false once a
// Fail-mode violation has stopped the run.
func (s *Simulation) checkInvariants() bool {
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
// interval stale), runs the watchdog a last time and records the
// violation count.
func (s *Simulation) finishControlPlane(r *Results) {
	if s.cfg.Metrics != nil {
		s.observe(s.pass)
	}
	s.checkInvariants()
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
