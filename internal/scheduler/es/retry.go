package es

import (
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/topology"
)

// AvoidFailed wraps any External Scheduler with the fault-recovery
// contract: a retried job is never re-placed at the site it just failed
// on. If the inner policy picks that site again (JobLocal always
// re-picks the origin; data-affinity policies gravitate back to where
// the inputs were cached), the wrapper overrides it with the
// least-loaded of the remaining sites. Fresh jobs (no failure recorded)
// pass through untouched, so wrapping changes nothing on a
// failure-free run.
type AvoidFailed struct {
	Inner scheduler.External
	Src   *rng.Source // tie-break stream for the least-loaded fallback
}

// Name reports the inner policy's name: the wrapper is a contract, not a
// distinct policy.
func (a AvoidFailed) Name() string { return a.Inner.Name() }

// Place implements scheduler.External.
func (a AvoidFailed) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	target := a.Inner.Place(g, j)
	if j.LastFailedSite < 0 || target != j.LastFailedSite || g.NumSites() <= 1 {
		return target
	}
	candidates := make([]topology.SiteID, 0, g.NumSites()-1)
	for s := 0; s < g.NumSites(); s++ {
		if topology.SiteID(s) != j.LastFailedSite {
			candidates = append(candidates, topology.SiteID(s))
		}
	}
	// Retry fallback is cold (faulted runs only): a transient scratch is
	// fine here.
	var scratch []topology.SiteID
	return scheduler.PickLeastLoaded(g, candidates, a.Src, &scratch)
}
