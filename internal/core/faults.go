package core

import (
	"fmt"
	"sort"

	"chicsim/internal/job"
	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
	"chicsim/internal/trace"
)

// This file wires internal/faults into the simulation: the Actions
// adapter the injector drives, in-flight transfer tracking (so crashes
// and aborts can kill flows deterministically and repair the bookkeeping
// their completion callbacks would have done), and the recovery paths —
// ES retry with capped exponential backoff, LS requeue on site recovery,
// DS re-replication of lost popular files.

// flowKind classifies a tracked transfer by what its completion callback
// maintains, which is exactly what an abort must clean up instead.
type flowKind uint8

const (
	fetchFlow  flowKind = iota // job-driven input fetch
	pushFlow                   // DS replica push (source copy pinned)
	outputFlow                 // job-output shipment
)

// managedFlow is one in-flight transfer under fault management.
type managedFlow struct {
	flow     *netsim.Flow
	kind     flowKind
	file     storage.FileID // -1 for output shipments
	src, dst topology.SiteID
}

// trackFlow registers an in-flight transfer for fault management. A
// no-op on failure-free runs (liveFlows stays nil), keeping the hot path
// identical to the pre-faults simulator.
func (s *Simulation) trackFlow(fl *netsim.Flow, kind flowKind, f storage.FileID, src, dst topology.SiteID) {
	if s.liveFlows == nil {
		return
	}
	s.liveFlows[fl.ID] = &managedFlow{flow: fl, kind: kind, file: f, src: src, dst: dst}
}

func (s *Simulation) untrackFlow(fl *netsim.Flow) {
	if s.liveFlows != nil {
		delete(s.liveFlows, fl.ID)
	}
}

// abortFlow cancels an in-flight managed transfer and repairs the
// bookkeeping its completion callback would have handled: a killed DS
// push unpins the source copy and clears the in-flight marker. Reports
// whether the aborted flow was an input fetch the destination site may
// want to restart from another replica.
func (s *Simulation) abortFlow(mf *managedFlow) bool {
	s.net.Cancel(mf.flow)
	delete(s.liveFlows, mf.flow.ID)
	switch mf.kind {
	case fetchFlow:
		return true
	case pushFlow:
		delete(s.pushesInFlight, pushKey{mf.file, mf.dst})
		if err := s.sites[mf.src].Store().Unpin(mf.file); err != nil {
			panic(fmt.Sprintf("core: aborting push of file %d from site %d: %v", mf.file, mf.src, err))
		}
	case outputFlow:
		// The user already has their answer; the bytes are simply lost.
	}
	return false
}

// sortedFlowIDs returns the live flow ids in ascending order, fixing the
// iteration order faults see (map order would break determinism).
func (s *Simulation) sortedFlowIDs() []int {
	ids := make([]int, 0, len(s.liveFlows))
	for id := range s.liveFlows {
		ids = append(ids, id)
	}
	sort.Ints(ids)
	return ids
}

// fetchRestart remembers an input fetch some healthy site lost to a
// remote crash and should re-issue once catalog state settles.
type fetchRestart struct {
	file storage.FileID
	dst  topology.SiteID
}

// cancelFlowsAt kills the in-flight transfers a crash of site sid
// invalidates: everything inbound (the site's cache and jobs are gone),
// outbound DS pushes and output shipments (sourced from the dying
// scratch space), and outbound fetches serving a *cached* copy. Fetches
// streaming a master copy keep flowing — masters live on the site's
// mass-storage system, which survives the compute front-end's crash.
// Returns the fetches other sites must restart from a surviving replica.
func (s *Simulation) cancelFlowsAt(sid topology.SiteID) []fetchRestart {
	var restarts []fetchRestart
	for _, id := range s.sortedFlowIDs() {
		mf, ok := s.liveFlows[id]
		if !ok {
			continue
		}
		switch mf.kind {
		case fetchFlow:
			if mf.dst == sid {
				s.abortFlow(mf)
			} else if mf.src == sid && !s.sites[sid].Store().IsMaster(mf.file) {
				s.abortFlow(mf)
				restarts = append(restarts, fetchRestart{file: mf.file, dst: mf.dst})
			}
		case pushFlow:
			if mf.src == sid || mf.dst == sid {
				s.abortFlow(mf)
			}
		case outputFlow:
			if mf.src == sid {
				s.abortFlow(mf)
			}
		}
	}
	return restarts
}

// crashSite applies a site-crash fault: cancel the transfers the crash
// invalidates, take the site down (killing running jobs, dropping cached
// replicas), restart orphaned fetches elsewhere, and push every affected
// job into the retry path.
func (s *Simulation) crashSite(sid topology.SiteID) {
	st := s.sites[sid]
	if st.Down() {
		return
	}
	restarts := s.cancelFlowsAt(sid)
	s.fb.NoteFault(sid)
	running, dropped := st.Crash(s.fcfg.RequeueOnRecovery)
	if len(s.lostAt) > 0 {
		s.lostAt[sid] = nil // whatever was pending restore died with the cache
	}
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.SiteCrashed, Site: int(sid)})
	for _, fr := range restarts {
		if s.sites[fr.dst].RestartFetch(fr.file) {
			s.transfersRestarted++
		}
	}
	for _, j := range running {
		s.failJob(j, sid)
	}
	for _, j := range dropped {
		s.failJob(j, sid)
	}
}

// recoverSite repairs a site crash: retained queued jobs re-acquire
// their data (LS requeue) and scheduling resumes.
func (s *Simulation) recoverSite(sid topology.SiteID) {
	st := s.sites[sid]
	if !st.Down() {
		return
	}
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.SiteRecovered, Site: int(sid)})
	st.Recover()
}

// failJob moves a job through one failure: back to Submitted, then
// either abandoned (retries exhausted) or rescheduled after the policy's
// backoff. The job's original SubmitTime is preserved, so retried jobs
// pay their failures in response time.
func (s *Simulation) failJob(j *job.Job, at topology.SiteID) {
	j.Fail(at)
	if s.retry.Exhausted(j.Retries) {
		s.jobAbandoned(j)
		return
	}
	s.jobsRetried++
	s.retryPending++
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobRetried, Job: int(j.ID), Site: int(at)})
	s.eng.Schedule(s.retry.Delay(j.Retries), func() {
		s.retryPending--
		s.route(j)
	})
}

// jobAbandoned retires a job that ran out of retries. The closed-loop
// workload still advances — the user gives up on this job and submits
// their next one — and the job counts toward the finish condition.
func (s *Simulation) jobAbandoned(j *job.Job) {
	s.jobsFailed++
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.JobAbandoned, Job: int(j.ID), User: int(j.User)})
	user := j.User
	s.jobs.Free(j)
	if s.workloadSettled() {
		return
	}
	s.driveUser(user)
}

// restoreReplicas is the DS's fault-recovery role: at wake-up,
// re-replicate the popular files this site lost to replica-loss faults,
// pulling each from the closest surviving copy.
func (s *Simulation) restoreReplicas(i int) {
	lost := s.lostAt[i]
	s.lostAt[i] = nil
	dsView := s.view
	if s.cfg.RegionalInfo {
		dsView = view{s: s, viewer: topology.SiteID(i)}
	}
	for _, f := range ds.Restore(dsView, topology.SiteID(i), lost, s.cfg.DSThreshold) {
		from, ok := s.cat.Closest(f, topology.SiteID(i), s.topo)
		if !ok {
			continue
		}
		before := s.replications
		s.pushReplica(from, scheduler.Replication{File: f, Target: topology.SiteID(i)})
		if s.replications > before {
			s.replicasRestored++
		}
	}
}

// faultOps adapts the simulation to faults.Actions. Sites and links are
// addressed by their dense integer ids.
type faultOps struct{ s *Simulation }

func (o faultOps) NumSites() int     { return len(o.s.sites) }
func (o faultOps) NumLinks() int     { return o.s.topo.NumLinks() }
func (o faultOps) SiteUp(i int) bool { return !o.s.sites[i].Down() }
func (o faultOps) CrashSite(i int)   { o.s.crashSite(topology.SiteID(i)) }
func (o faultOps) RecoverSite(i int) { o.s.recoverSite(topology.SiteID(i)) }

func (o faultOps) FailCE(i int) bool {
	victim, ok := o.s.sites[i].FailCE()
	if !ok {
		return false
	}
	o.s.rec.Record(trace.Event{T: o.s.eng.Now(), Kind: trace.CEFailed, Site: i})
	o.s.fb.NoteFault(topology.SiteID(i))
	if victim != nil {
		o.s.failJob(victim, topology.SiteID(i))
	}
	return true
}

func (o faultOps) RecoverCE(i int) {
	o.s.rec.Record(trace.Event{T: o.s.eng.Now(), Kind: trace.CERecovered, Site: i})
	o.s.sites[i].RecoverCE()
}

func (o faultOps) LinkNominal(l int) bool {
	return !o.s.net.OverrideActive(topology.LinkID(l))
}

func (o faultOps) DegradeLink(l int, factor float64) {
	lid := topology.LinkID(l)
	o.s.rec.Record(trace.Event{T: o.s.eng.Now(), Kind: trace.LinkFault, Src: l})
	o.s.net.SetLinkBandwidth(lid, factor*o.s.topo.Link(lid).Bandwidth)
}

func (o faultOps) RestoreLink(l int) {
	o.s.rec.Record(trace.Event{T: o.s.eng.Now(), Kind: trace.LinkRepair, Src: l})
	o.s.net.SetLinkBandwidth(topology.LinkID(l), -1)
}

func (o faultOps) AbortTransfer(pick *rng.Source) bool {
	s := o.s
	if len(s.liveFlows) == 0 {
		return false
	}
	ids := s.sortedFlowIDs()
	mf := s.liveFlows[ids[pick.Intn(len(ids))]]
	s.rec.Record(trace.Event{
		T: s.eng.Now(), Kind: trace.TransferAbort,
		File: int(mf.file), Src: int(mf.src), Dst: int(mf.dst),
	})
	if s.abortFlow(mf) && s.sites[mf.dst].RestartFetch(mf.file) {
		s.transfersRestarted++
	}
	return true
}

func (o faultOps) LoseReplica(pick *rng.Source) bool {
	s := o.s
	sid := topology.SiteID(pick.Intn(len(s.sites)))
	st := s.sites[sid]
	if st.Down() {
		return false
	}
	cands := st.CachedIdleFiles()
	if len(cands) == 0 {
		return false
	}
	f := cands[pick.Intn(len(cands))]
	count := st.PopularityOf(f)
	if !st.DeleteReplica(f) {
		return false
	}
	s.rec.Record(trace.Event{T: s.eng.Now(), Kind: trace.ReplicaLost, File: int(f), Site: int(sid)})
	if s.fcfg.RestoreReplicas {
		s.lostAt[sid] = append(s.lostAt[sid], scheduler.PopularFile{File: f, Count: count})
		s.dsRearm(int(sid))
	}
	return true
}
