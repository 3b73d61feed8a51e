package site

import (
	"fmt"
	"sort"

	"chicsim/internal/desim"
	"chicsim/internal/job"
	"chicsim/internal/storage"
)

// This file holds the site's fault surface: whole-site crash/recovery,
// per-CE failure, and fetch restart after an aborted transfer. All of it
// is driven by the core simulation on behalf of internal/faults; the
// methods only mutate local state deterministically and hand affected
// jobs back to the caller, which owns retry policy.

// Down reports whether the site is crashed. A down site schedules
// nothing and accepts no work; its master copies remain reachable (they
// live on the mass-storage system, not the compute front-end).
func (s *Site) Down() bool { return s.down }

// AvailableCEs returns the compute elements currently serviceable:
// nominal CEs minus those taken out by CE failures.
func (s *Site) AvailableCEs() int { return s.ces - s.failedCEs }

// PopularityOf returns the access count recorded for f in the current
// DS window (used to decide whether a lost replica is worth restoring).
func (s *Site) PopularityOf(f storage.FileID) int {
	if _, fs := s.lookup(f); fs != nil {
		return int(fs.count)
	}
	return 0
}

// Crash takes the site down. Running jobs are killed (their completion
// events cancelled) and returned in job-id order; queued jobs either
// stay in the queue for requeue-on-recovery (keepQueued) or are dropped
// and returned. Cached replicas are lost and deregistered; masters
// survive on mass storage. The caller must cancel in-flight transfers
// involving this site — including DS pushes, whose source pins would
// otherwise block the replica drop — *before* calling Crash.
//
// Returned jobs are left in their Running/Queued states; the caller
// decides their fate (job.Fail + ES retry).
func (s *Site) Crash(keepQueued bool) (running, dropped []*job.Job) {
	if s.down {
		return nil, nil
	}
	// Kill running jobs in deterministic job-id order.
	victims := append([]*job.Job(nil), s.running...)
	sort.Slice(victims, func(i, j int) bool { return victims[i].ID < victims[j].ID })
	for _, j := range victims {
		s.eng.Cancel(j.RunEv)
		j.RunEv = desim.Event{}
		j.RunIdx = -1
		s.release(j)
		running = append(running, j)
	}
	clear(s.running)
	s.running = s.running[:0]
	s.setBusy(0)

	// Queued jobs lose whatever data holds they had; their inputs will be
	// re-acquired on recovery (keepQueued) or at the retry site.
	for _, j := range s.queue {
		s.release(j)
		j.DataReady = -1
	}
	if !keepQueued {
		dropped = s.queue
		s.queue = nil
	}

	if s.holds != 0 {
		panic(fmt.Sprintf("site %d: crash with %d data holds left", s.id, s.holds))
	}

	// In-flight fetch bookkeeping dies with the site (the core has
	// already cancelled the underlying flows), and so does the DS's
	// popularity window. Its requester arena is reclaimable at once:
	// nothing of this window was lent out. Idle ages survive.
	for slot := range s.files {
		fs := &s.files[slot]
		if !fs.fetching && len(fs.waiters) == 0 && fs.transient == 0 && fs.count == 0 {
			continue // nothing to clear, or a free slot
		}
		if fs.waiters != nil {
			s.waitPool = append(s.waitPool, fs.waiters[:0])
		}
		fs.waiters, fs.fetching, fs.transient = nil, false, 0
		fs.count, fs.reqOff, fs.reqLen, fs.reqCap = 0, 0, 0, 0
		s.settle(storage.Slot(slot))
	}
	s.touched = s.touched[:0]
	s.reqs = s.reqs[:0]

	// Scratch cache is gone: drop every cached (non-master) replica.
	for _, f := range s.store.Resident() {
		if s.store.IsMaster(f) {
			continue
		}
		if !s.store.RemoveReplica(f) {
			panic(fmt.Sprintf("site %d: crash could not drop replica %d (pin leaked across crash)", s.id, f))
		}
	}

	s.down = true
	return running, dropped
}

// Recover brings a crashed site back. Jobs kept in the queue (requeue on
// recovery) re-acquire their inputs — cache hits against surviving
// masters, fetches otherwise — and the local scheduler resumes.
func (s *Site) Recover() {
	if !s.down {
		return
	}
	s.down = false
	for _, j := range s.queue {
		s.arm(j, false)
	}
	s.trySchedule()
}

// FailCE takes one compute element offline. If the remaining CEs cannot
// hold the current running set, the most recently dispatched running job
// (highest id) is killed and returned for the caller to retry elsewhere.
// Reports false if the site is down or has no CE left to fail.
func (s *Site) FailCE() (*job.Job, bool) {
	if s.down || s.failedCEs >= s.ces {
		return nil, false
	}
	s.failedCEs++
	if s.busy <= s.ces-s.failedCEs {
		return nil, true // a free CE absorbed the failure
	}
	var victim *job.Job
	for _, j := range s.running {
		if victim == nil || j.ID > victim.ID {
			victim = j
		}
	}
	s.eng.Cancel(victim.RunEv)
	s.removeRunning(victim)
	s.setBusy(s.busy - 1)
	s.release(victim)
	return victim, true
}

// RecoverCE returns one failed compute element to service. CE repairs
// are independent of site crashes: a CE fixed while its site is down
// counts toward capacity once the site recovers.
func (s *Site) RecoverCE() {
	if s.failedCEs == 0 {
		return
	}
	s.failedCEs--
	if !s.down {
		s.trySchedule()
	}
}

// RestartFetch re-issues an interrupted inbound fetch from the closest
// surviving replica. No-op (false) if the site is down or no longer
// expects the file.
func (s *Site) RestartFetch(f storage.FileID) bool {
	_, fs := s.lookup(f)
	if s.down || fs == nil || !fs.fetching {
		return false
	}
	src, ok := s.cat.Closest(f, s.id, s.topo)
	if !ok {
		panic(fmt.Sprintf("site %d: no surviving replica of file %d to restart fetch from", s.id, f))
	}
	// Credit the restart to the first job still waiting on the file; a
	// restart with no waiters has no job to attribute.
	requester := job.ID(-1)
	if len(fs.waiters) > 0 {
		requester = fs.waiters[0].ID
	}
	size, _ := s.cat.Size(f)
	s.mover.Fetch(f, src, s.id, requester, s.newArriveRec(f, size).fn)
	return true
}
