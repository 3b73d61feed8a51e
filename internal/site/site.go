// Package site implements the per-site runtime of the Data Grid: the
// incoming job queue, compute elements, the data-fetch path that overlaps
// transfers with queueing (the paper's "max(queue time, transfer time) +
// compute time" model), dataset pinning, and the popularity bookkeeping
// consumed by the Dataset Scheduler.
package site

import (
	"fmt"
	"slices"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/job"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// DataMover moves a file between sites on behalf of a site runtime. The
// core simulation implements it over netsim, attributing the traffic to
// job-driven fetches. requester is the job whose arrival triggered the
// fetch (-1 when no single job can be credited, e.g. a restart with no
// waiters), so traces can reconstruct causal fetch→job spans. done fires
// when the last byte arrives.
type DataMover interface {
	Fetch(f storage.FileID, from, to topology.SiteID, requester job.ID, done func())
}

// Config sizes one site.
type Config struct {
	ID       topology.SiteID
	CEs      int     // compute elements ("processors"), paper: 2–5
	Capacity float64 // storage bytes; <= 0 means unlimited
	// OnEvict, when non-nil, observes LRU evictions of cached replicas
	// (in addition to the automatic catalog deregistration).
	OnEvict func(storage.FileID)
	// Speed scales processor performance: a job's wall time is
	// ComputeTime/Speed. <= 0 means 1.0 (the paper's homogeneous grid).
	Speed float64
	// OnWindowOpen, when non-nil, is called with the site's id when an
	// access is recorded into an empty popularity window (the first since
	// the last drain or crash), before the access is counted.
	OnWindowOpen func(topology.SiteID)
}

// Site is a single grid site. All methods must be called from simulation
// events (single-threaded).
type Site struct {
	id    topology.SiteID
	ces   int
	speed float64
	eng   *desim.Engine
	topo  *topology.Topology
	cat   *catalog.Catalog
	mover DataMover
	ls    scheduler.Local
	store *storage.Store

	queue []*job.Job
	busy  int
	// files is the site's half of its per-file records, indexed by the
	// store's slots: one table lookup in the store reaches both halves.
	files    []fileState
	waitPool [][]*job.Job // emptied waiter lists (capacity reuse)
	holds    int          // outstanding data holds across all jobs here (leak check)
	running  []*job.Job   // jobs on CEs; each job's RunEv/RunIdx index into this

	// Pooled completion/arrival records: the per-run and per-fetch
	// callbacks are closures built once per record and recycled, so the
	// steady-state execute and fetch paths allocate nothing.
	runPool []*runRec
	arrPool []*arriveRec

	// Fault state (see faults.go). A down site accepts no work; failedCEs
	// shrinks the schedulable CE count below the nominal ces.
	down      bool
	failedCEs int

	// The DS popularity window: the slots first accessed since the last
	// drain, in first-access order, and the arena their requester runs
	// live in. The previous window's arena is lent out with the drained
	// slice until the next drain.
	touched []storage.Slot
	reqs    []scheduler.RequesterCount
	lentReq []scheduler.RequesterCount
	popBuf  []scheduler.PopularFile // DrainPopularity output, reused per drain

	onDone       func(*job.Job)
	onWindowOpen func(topology.SiteID)

	// Busy-time integral for the idle-time metric.
	busyInt  float64
	lastBusy desim.Time

	fetchesStarted int
}

// fileState is the site's per-file state. A file with any of it set is
// held in the store (storage.Store.Hold), so its slot outlives eviction;
// settle releases the hold once everything is back to zero.
type fileState struct {
	// waiters are the queued jobs missing this file; nil when none.
	waiters []*job.Job
	// count is the accesses recorded in the current popularity window;
	// non-zero exactly when the slot is on the touched list.
	count int32
	// The window's requester run: reqs[reqOff : reqOff+reqLen], with room
	// for reqCap entries before the next run in the arena.
	reqOff, reqLen, reqCap int32
	// transient counts the holds on a copy that arrived for waiting jobs
	// but could not be cached (capacity exhausted by pinned data). It lives
	// in a staging area, usable by the jobs that needed it and discarded
	// afterwards; it is not registered as a grid replica.
	transient int32
	// idle counts consecutive DS windows a cached replica went unaccessed
	// (AgeIdleReplicas). It survives eviction and crashes.
	idle     int32
	fetching bool
}

// New creates a site. onDone fires after each job completes (used by the
// workload driver to submit the user's next job and by metrics).
func New(eng *desim.Engine, topo *topology.Topology, cat *catalog.Catalog, mover DataMover, lsched scheduler.Local, cfg Config, onDone func(*job.Job)) (*Site, error) {
	if cfg.CEs <= 0 {
		return nil, fmt.Errorf("site %d: CEs = %d, must be > 0", cfg.ID, cfg.CEs)
	}
	speed := cfg.Speed
	if speed <= 0 {
		speed = 1
	}
	s := &Site{
		id:     cfg.ID,
		ces:    cfg.CEs,
		speed:  speed,
		eng:    eng,
		topo:   topo,
		cat:    cat,
		mover:  mover,
		ls:     lsched,
		onDone: onDone,

		onWindowOpen: cfg.OnWindowOpen,
	}
	s.store = storage.New(cfg.Capacity, func(f storage.FileID) {
		cat.Deregister(f, s.id)
		if cfg.OnEvict != nil {
			cfg.OnEvict(f)
		}
	})
	return s, nil
}

// ID returns the site id.
func (s *Site) ID() topology.SiteID { return s.id }

// CEs returns the number of compute elements.
func (s *Site) CEs() int { return s.ces }

// Speed returns the processor speed factor (1 = the paper's baseline).
func (s *Site) Speed() float64 { return s.speed }

// QueueLen returns the number of jobs waiting to run — the paper's load
// metric for JobLeastLoaded and DataLeastLoaded.
func (s *Site) QueueLen() int { return len(s.queue) }

// Busy returns the number of occupied compute elements.
func (s *Site) Busy() int { return s.busy }

// DataWaitingJobs returns how many queued jobs are still waiting on at
// least one input transfer (read-only; the monitor's data-stall gauge).
func (s *Site) DataWaitingJobs() int {
	n := 0
	for _, j := range s.queue {
		if !jobReady(j) {
			n++
		}
	}
	return n
}

// Store exposes the site's storage (read-mostly; used by setup and tests).
func (s *Site) Store() *storage.Store { return s.store }

// FetchesStarted returns how many job-driven fetches this site initiated.
func (s *Site) FetchesStarted() int { return s.fetchesStarted }

// InstallMaster places a permanent master copy and registers it.
func (s *Site) InstallMaster(f storage.FileID, size float64) error {
	if err := s.store.AddMaster(f, size); err != nil {
		return err
	}
	s.cat.Register(f, s.id)
	return nil
}

// BusyIntegral returns ∫ busy(t) dt over [0, at]. Call from an event at
// time `at` (it settles the integral to the engine's current time).
func (s *Site) BusyIntegral(at desim.Time) float64 {
	s.settleBusy()
	if at != s.lastBusy {
		// Extrapolate a settled integral to `at` with the current busy
		// level (valid only when at == now; guard against misuse).
		panic("site: BusyIntegral must be called at the current virtual time")
	}
	return s.busyInt
}

func (s *Site) settleBusy() {
	now := s.eng.Now()
	s.busyInt += float64(s.busy) * (now - s.lastBusy)
	s.lastBusy = now
}

func (s *Site) setBusy(b int) {
	s.settleBusy()
	s.busy = b
}

// state returns the site's half of a slot's record.
func (s *Site) state(slot storage.Slot) *fileState {
	if int(slot) >= len(s.files) {
		s.files = append(s.files, make([]fileState, s.store.Slots()-len(s.files))...)
	}
	return &s.files[slot]
}

// hold returns f's slot, keeping its record for the site's state.
func (s *Site) hold(f storage.FileID) storage.Slot {
	slot := s.store.Hold(f)
	s.state(slot)
	return slot
}

// settle releases a slot's record once the site keeps no state for it.
// The slot must not be used after it.
func (s *Site) settle(slot storage.Slot) {
	fs := &s.files[slot]
	if fs.count == 0 && fs.transient == 0 && fs.idle == 0 && !fs.fetching && len(fs.waiters) == 0 {
		s.store.Release(slot)
	}
}

// lookup returns f's slot and the site's state for it, or NoSlot and nil.
func (s *Site) lookup(f storage.FileID) (storage.Slot, *fileState) {
	slot := s.store.Lookup(f)
	if slot == storage.NoSlot {
		return slot, nil
	}
	return slot, s.state(slot)
}

// Enqueue places a dispatched job in the incoming queue, starts fetches for
// missing inputs, and records dataset popularity. Matching the paper, the
// data transfer overlaps with the queue wait.
func (s *Site) Enqueue(j *job.Job) {
	if s.down {
		panic(fmt.Sprintf("site %d: Enqueue while down (the ES must treat a down site as a placement failure)", s.id))
	}
	j.Site = s.id
	j.Advance(job.Queued, s.eng.Now())
	s.queue = append(s.queue, j)
	s.arm(j, true)
	s.trySchedule()
}

// arm takes the data holds a queued job needs: pin present inputs, start
// fetches for missing ones. record controls popularity accounting — true
// on first arrival, false when re-arming after a site recovery (the job
// is not requesting the data again, the site is restoring its own state).
func (s *Site) arm(j *job.Job, record bool) {
	for _, f := range j.Inputs {
		slot := s.hold(f)
		if record {
			s.recordAccess(slot, j.Origin)
		}
		if s.store.ContainsAt(slot) || s.files[slot].transient > 0 { // ContainsAt also books the hit/miss
			s.acquire(j, slot)
			s.settle(slot)
			continue
		}
		fs := &s.files[slot]
		if fs.waiters == nil {
			if n := len(s.waitPool); n > 0 {
				fs.waiters = s.waitPool[n-1]
				s.waitPool[n-1] = nil
				s.waitPool = s.waitPool[:n-1]
			}
		}
		fs.waiters = append(fs.waiters, j)
		if !fs.fetching {
			s.startFetch(slot, f, j.ID)
		}
	}
	if jobReady(j) {
		j.DataReady = s.eng.Now()
	}
}

// acquire pins (or transient-refs) a present input for a job. The hold
// kind is fixed at acquire time so a later state change (e.g. the file
// getting cached after being staged) cannot unbalance the accounting.
// Holds live on the job itself (job.Hold), so the bookkeeping recycles
// with the job instead of churning a per-site map.
func (s *Site) acquire(j *job.Job, slot storage.Slot) {
	ref := job.Hold{Slot: slot}
	if s.store.ResidentAt(slot) {
		s.store.PinAt(slot)
	} else {
		s.files[slot].transient++
		ref.Transient = true
	}
	j.Holds = append(j.Holds, ref)
	s.holds++
}

func (s *Site) release(j *job.Job) {
	for _, ref := range j.Holds {
		if ref.Transient {
			s.files[ref.Slot].transient--
			if s.files[ref.Slot].transient == 0 {
				s.settle(ref.Slot)
			}
			continue
		}
		if err := s.store.UnpinAt(ref.Slot); err != nil {
			panic(err)
		}
		s.store.TouchAt(ref.Slot) // refresh recency on use
	}
	s.holds -= len(j.Holds)
	j.Holds = j.Holds[:0]
}

// jobReady reports whether all of j's inputs are locally usable. A plain
// function, not a method: the method value handed to the local scheduler
// would allocate a closure on every call.
func jobReady(j *job.Job) bool {
	return len(j.Holds) == len(j.Inputs)
}

// arriveRec is a pooled arrival callback for mover fetches: the closure
// is built once per record and captures the record, not the fetch, so a
// site's steady-state fetch path allocates no per-fetch closures. The
// record frees itself before delivering, making it reusable by any
// cascading fetch the arrival triggers. A record whose fetch never
// completes (transfer aborted by a fault) is simply dropped to the GC —
// the same cost the old per-fetch closure paid on every fetch.
type arriveRec struct {
	s    *Site
	f    storage.FileID
	size float64
	fn   func()
}

func (s *Site) newArriveRec(f storage.FileID, size float64) *arriveRec {
	var r *arriveRec
	if n := len(s.arrPool); n > 0 {
		r = s.arrPool[n-1]
		s.arrPool[n-1] = nil
		s.arrPool = s.arrPool[:n-1]
	} else {
		r = &arriveRec{s: s}
		r.fn = func() {
			f, size := r.f, r.size
			r.s.arrPool = append(r.s.arrPool, r)
			r.s.fileArrived(f, size)
		}
	}
	r.f, r.size = f, size
	return r
}

// startFetch picks the closest replica source and asks the data mover to
// bring the file here on behalf of the requesting job.
func (s *Site) startFetch(slot storage.Slot, f storage.FileID, requester job.ID) {
	src, ok := s.cat.Closest(f, s.id, s.topo)
	if !ok {
		panic(fmt.Sprintf("site %d: no replica of file %d anywhere", s.id, f))
	}
	s.files[slot].fetching = true
	s.fetchesStarted++
	size, _ := s.cat.Size(f)
	s.mover.Fetch(f, src, s.id, requester, s.newArriveRec(f, size).fn)
}

// fileArrived lands a file (from a fetch or a DS push). It caches the file
// if capacity allows, satisfies waiting jobs, and re-runs the local
// scheduler.
func (s *Site) fileArrived(f storage.FileID, size float64) {
	slot := s.hold(f)
	fs := &s.files[slot]
	waiters := fs.waiters
	fs.fetching, fs.waiters = false, nil
	if s.store.AddReplicaAt(slot, size) {
		s.cat.Register(f, s.id)
	} else if waiters == nil {
		s.settle(slot)
		return // nowhere to cache it and nobody needs it
	}
	// Otherwise stage transiently for the jobs that are waiting.
	now := s.eng.Now()
	for _, j := range waiters {
		if j.State == job.Done {
			continue
		}
		s.acquire(j, slot)
		if jobReady(j) && j.DataReady < 0 {
			j.DataReady = now
		}
	}
	if waiters != nil {
		s.waitPool = append(s.waitPool, waiters[:0])
	}
	s.settle(slot)
	s.trySchedule()
}

// ReceiveReplica lands a pushed replica from a remote Dataset Scheduler.
func (s *Site) ReceiveReplica(f storage.FileID, size float64) {
	s.fileArrived(f, size)
}

// trySchedule assigns free compute elements to ready queued jobs according
// to the local scheduling policy.
func (s *Site) trySchedule() {
	if s.down {
		return
	}
	for s.busy < s.ces-s.failedCEs {
		idx := s.ls.Next(s.queue, jobReady)
		if idx < 0 {
			return
		}
		j := s.queue[idx]
		s.queue = append(s.queue[:idx], s.queue[idx+1:]...)
		s.run(j)
	}
}

// runRec is a pooled completion callback for job execution, recycled the
// same way as arriveRec. A record whose completion event is cancelled by
// a crash or CE failure is dropped to the GC.
type runRec struct {
	s  *Site
	j  *job.Job
	fn func()
}

func (s *Site) newRunRec(j *job.Job) *runRec {
	var r *runRec
	if n := len(s.runPool); n > 0 {
		r = s.runPool[n-1]
		s.runPool[n-1] = nil
		s.runPool = s.runPool[:n-1]
	} else {
		r = &runRec{s: s}
		r.fn = func() {
			j := r.j
			r.j = nil
			r.s.runPool = append(r.s.runPool, r)
			r.s.complete(j)
		}
	}
	r.j = j
	return r
}

func (s *Site) run(j *job.Job) {
	if !jobReady(j) {
		panic(fmt.Sprintf("site %d: scheduling job %d without its data", s.id, j.ID))
	}
	j.Advance(job.Running, s.eng.Now())
	s.setBusy(s.busy + 1)
	j.RunEv = s.eng.Schedule(j.ComputeTime/s.speed, s.newRunRec(j).fn)
	j.RunIdx = len(s.running)
	s.running = append(s.running, j)
}

// removeRunning takes a job off the CE list (swap-remove via its RunIdx
// back-pointer) and clears its run bookkeeping.
func (s *Site) removeRunning(j *job.Job) {
	i := j.RunIdx
	if i < 0 || i >= len(s.running) || s.running[i] != j {
		panic(fmt.Sprintf("site %d: running index out of sync for job %d", s.id, j.ID))
	}
	last := len(s.running) - 1
	s.running[i] = s.running[last]
	s.running[i].RunIdx = i
	s.running[last] = nil
	s.running = s.running[:last]
	j.RunIdx = -1
	j.RunEv = desim.Event{}
}

func (s *Site) complete(j *job.Job) {
	s.removeRunning(j)
	j.Advance(job.Done, s.eng.Now())
	s.setBusy(s.busy - 1)
	s.release(j)
	if s.onDone != nil {
		s.onDone(j)
	}
	s.trySchedule()
}

// recordAccess counts one request for a slot's file at this site on
// behalf of requester (a job's origin site or a remote fetching site).
// The slot must be held.
func (s *Site) recordAccess(slot storage.Slot, requester topology.SiteID) {
	if s.files[slot].count == 0 {
		if len(s.touched) == 0 && s.onWindowOpen != nil {
			s.onWindowOpen(s.id)
		}
		s.touched = append(s.touched, slot)
	}
	fs := &s.files[slot]
	fs.count++
	run := s.reqs[fs.reqOff : fs.reqOff+fs.reqLen]
	for k := range run {
		if run[k].Site == requester {
			run[k].Count++
			return
		}
	}
	if fs.reqLen == fs.reqCap {
		// The run is full: move it to the arena's end unless it is there,
		// and double its room.
		if end := int32(len(s.reqs)); fs.reqOff+fs.reqCap != end {
			s.reqs = append(s.reqs, run...)
			fs.reqOff = end
		}
		grow := max(fs.reqLen, 1)
		s.reqs = slices.Grow(s.reqs, int(grow))[:len(s.reqs)+int(grow)]
		fs.reqCap = fs.reqLen + grow
	}
	s.reqs[fs.reqOff+fs.reqLen] = scheduler.RequesterCount{Site: requester, Count: 1}
	fs.reqLen++
}

// RecordRemoteRequest counts a remote site fetching f from here — a use of
// this site's locally available copy.
func (s *Site) RecordRemoteRequest(f storage.FileID, requester topology.SiteID) {
	s.recordAccess(s.hold(f), requester)
}

// DeleteReplica removes a cached replica on behalf of the Dataset
// Scheduler ("determines if and when to replicate data and/or delete
// local files", §3). Masters, pinned files, and files a fetch is still
// racing toward are left alone. Reports whether a copy was deleted.
func (s *Site) DeleteReplica(f storage.FileID) bool {
	slot, fs := s.lookup(f)
	if fs == nil || fs.fetching || len(fs.waiters) > 0 {
		return false
	}
	return s.store.RemoveReplicaAt(slot)
}

// CachedIdleFiles returns the resident non-master files that are neither
// pinned nor being fetched — the candidates for DS-driven deletion — in
// ascending id order.
func (s *Site) CachedIdleFiles() []storage.FileID {
	var out []storage.FileID
	for _, f := range s.store.Resident() {
		if _, fs := s.lookup(f); !s.store.IsMaster(f) && s.store.Pins(f) == 0 && !fs.fetching {
			out = append(out, f)
		}
	}
	return out
}

// AgeIdleReplicas is the DS's deletion role at one wake. Each cached idle
// replica (CachedIdleFiles) that is not among accessed, the window just
// drained, counts one more idle window; at after windows it is deleted.
// A file in accessed starts counting again from zero. Deletions go in
// ascending id order; it returns how many replicas were deleted.
func (s *Site) AgeIdleReplicas(accessed []scheduler.PopularFile, after int) int {
	idle := s.CachedIdleFiles()
	for _, f := range idle {
		slot := s.hold(f)
		s.files[slot].idle++
	}
	for _, p := range accessed {
		if slot, fs := s.lookup(p.File); fs != nil && fs.idle != 0 {
			fs.idle = 0
			s.settle(slot)
		}
	}
	deleted := 0
	for _, f := range idle {
		slot, fs := s.lookup(f)
		if int(fs.idle) < after {
			continue
		}
		if s.DeleteReplica(f) {
			deleted++
		}
		fs.idle = 0
		s.settle(slot)
	}
	return deleted
}

// WindowEmpty reports whether no access has been recorded since the last
// DrainPopularity (or crash).
func (s *Site) WindowEmpty() bool { return len(s.touched) == 0 }

// DrainPopularity returns and clears the per-file access counts recorded
// since the previous drain, restricted to files locally resident (the DS
// "keeps track of the popularity of each dataset locally available"),
// ordered most-popular first (ties by file id for determinism).
//
// The returned slice and the ByRequester runs inside it are reused
// backing storage: they are valid until the next DrainPopularity call —
// the DS wake that drains them consumes them synchronously.
func (s *Site) DrainPopularity() []scheduler.PopularFile {
	out := s.popBuf[:0]
	for _, slot := range s.touched {
		fs := &s.files[slot]
		if s.store.ResidentAt(slot) {
			end := fs.reqOff + fs.reqLen
			out = append(out, scheduler.PopularFile{
				File:        s.store.FileAt(slot),
				Count:       int(fs.count),
				ByRequester: s.reqs[fs.reqOff:end:end],
			})
		}
		fs.count, fs.reqOff, fs.reqLen, fs.reqCap = 0, 0, 0, 0
		s.settle(slot)
	}
	s.touched = s.touched[:0]
	// This window's runs are lent out with out; the previous window's
	// arena, consumed by now, takes the next window's.
	s.reqs, s.lentReq = s.lentReq[:0], s.reqs
	// Insertion sort: file ids are unique, so (Count desc, File asc) is a
	// total order and any sort yields the same result as sort.Slice did —
	// without sort.Slice's per-call reflection allocations. Windows are
	// small (files accessed at one site in one DS interval).
	for i := 1; i < len(out); i++ {
		for k := i; k > 0; k-- {
			a, b := out[k-1], out[k]
			if a.Count > b.Count || (a.Count == b.Count && a.File < b.File) {
				break
			}
			out[k-1], out[k] = b, a
		}
	}
	s.popBuf = out
	return out
}
