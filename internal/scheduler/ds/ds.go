// Package ds implements Dataset Scheduler (replication) policies: the
// paper's DataDoNothing, DataRandom, and DataLeastLoaded (§4), plus the
// DataCascade and DataBestClient extensions adapted from the companion
// replication study (Ranganathan & Foster, "Identifying Dynamic Replication
// Strategies for a High-Performance Data Grid", 2001 — reference [23]).
//
// A DS runs asynchronously at each site: it observes the popularity of
// locally available datasets and pushes replicas of popular ones. The
// choice of *where* distinguishes the policies.
package ds

import (
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// DoNothing performs no active replication ("DataDoNothing"): data moves
// only as a side effect of job-driven fetches, which are cached with LRU.
type DoNothing struct{}

// Name implements scheduler.Dataset.
func (DoNothing) Name() string { return "DataDoNothing" }

// Decide implements scheduler.Dataset.
func (DoNothing) Decide(scheduler.GridView, topology.SiteID, []scheduler.PopularFile) []scheduler.Replication {
	return nil
}

// Random replicates each popular dataset "to a random site on the grid"
// that does not already hold it ("DataRandom").
type Random struct{ Src *rng.Source }

// Name implements scheduler.Dataset.
func (Random) Name() string { return "DataRandom" }

// Decide implements scheduler.Dataset.
func (r Random) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	var out []scheduler.Replication
	for _, p := range popular {
		var cands []topology.SiteID
		for s := 0; s < g.NumSites(); s++ {
			sid := topology.SiteID(s)
			if sid != self && !g.HasReplica(p.File, sid) {
				cands = append(cands, sid)
			}
		}
		if len(cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: rng.Pick(r.Src, cands)})
	}
	return out
}

// LeastLoaded replicates each popular dataset to "the least loaded site
// from its list of known sites (we define this as neighbors)"
// ("DataLeastLoaded"). Neighbors are the sites sharing the deciding site's
// regional parent in the hierarchy; if every neighbor already holds the
// file the policy widens to the whole grid so popularity pressure is never
// silently dropped.
type LeastLoaded struct {
	Src *rng.Source

	ties []topology.SiteID // reused tie-set scratch
}

// Name implements scheduler.Dataset.
func (*LeastLoaded) Name() string { return "DataLeastLoaded" }

// Decide implements scheduler.Dataset.
func (l *LeastLoaded) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	var out []scheduler.Replication
	for _, p := range popular {
		cands := CandidateTargets(g, p.File, self)
		if len(cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: scheduler.PickLeastLoaded(g, cands, l.Src, &l.ties)})
	}
	return out
}

// CandidateTargets returns, in deterministic order, the replication
// targets DataLeastLoaded considers for file f at site self: the siblings
// not yet holding f, widening to the whole grid when every sibling already
// has it. Empty means the file is fully replicated. Exported so
// telemetry-driven extensions can rank exactly the baseline's candidate
// set with richer scores.
func CandidateTargets(g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	cands := WithoutReplica(g, f, g.Topology().Siblings(self), self)
	if len(cands) == 0 {
		// Widen to the whole grid, filtering site ids directly — same
		// order as materializing 0..NumSites-1 first, without the
		// intermediate slice — into one allocation sized for the grid.
		cands = make([]topology.SiteID, 0, g.NumSites())
		for s := 0; s < g.NumSites(); s++ {
			sid := topology.SiteID(s)
			if sid != self && !g.HasReplica(f, sid) {
				cands = append(cands, sid)
			}
		}
	}
	return cands
}

// Cascade replicates popular data down the hierarchy toward clients: it
// targets the least loaded *sibling* first and, once all siblings hold the
// file, stops (extension modeled on [23]'s cascading strategy, where
// replicas flow tier-by-tier rather than jumping across the grid).
type Cascade struct {
	Src *rng.Source

	ties []topology.SiteID // reused tie-set scratch
}

// Name implements scheduler.Dataset.
func (*Cascade) Name() string { return "DataCascade" }

// Decide implements scheduler.Dataset.
func (c *Cascade) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	neighbors := g.Topology().Siblings(self)
	var out []scheduler.Replication
	for _, p := range popular {
		cands := WithoutReplica(g, p.File, neighbors, self)
		if len(cands) == 0 {
			continue // tier saturated: cascading stops here
		}
		out = append(out, scheduler.Replication{File: p.File, Target: scheduler.PickLeastLoaded(g, cands, c.Src, &c.ties)})
	}
	return out
}

// BestClient replicates each popular dataset to the site that generated
// the most requests for it (extension modeled on [23]'s Best Client
// strategy). Falls back to doing nothing when the best client already
// holds the file.
type BestClient struct{ Src *rng.Source }

// Name implements scheduler.Dataset.
func (BestClient) Name() string { return "DataBestClient" }

// Decide implements scheduler.Dataset.
func (b BestClient) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	var out []scheduler.Replication
	for _, p := range popular {
		best := topology.SiteID(-1)
		bestCount := 0
		for s := 0; s < g.NumSites(); s++ { // site order for determinism
			sid := topology.SiteID(s)
			n := p.ByRequester[sid]
			if sid != self && n > bestCount && !g.HasReplica(p.File, sid) {
				best = sid
				bestCount = n
			}
		}
		if best < 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: best})
	}
	return out
}

// WithoutReplica filters sites down to those not holding f, excluding self.
func WithoutReplica(g scheduler.GridView, f storage.FileID, sites []topology.SiteID, self topology.SiteID) []topology.SiteID {
	var out []topology.SiteID
	for _, s := range sites {
		if s != self && !g.HasReplica(f, s) {
			out = append(out, s)
		}
	}
	return out
}
