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
	var buf [64]topology.SiteID // the candidates of grids this size stay off the heap
	for _, p := range popular {
		cands := NonHolders(g, p.File, self, buf[:0])
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

	cands, ties []topology.SiteID // reused candidate and tie-set scratch
}

// Name implements scheduler.Dataset.
func (*LeastLoaded) Name() string { return "DataLeastLoaded" }

// Decide implements scheduler.Dataset.
func (l *LeastLoaded) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	var out []scheduler.Replication
	for _, p := range popular {
		l.cands = AppendCandidateTargets(l.cands[:0], g, p.File, self)
		if len(l.cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: scheduler.PickLeastLoaded(g, l.cands, l.Src, &l.ties)})
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
	return AppendCandidateTargets(nil, g, f, self)
}

// AppendCandidateTargets appends CandidateTargets' set to dst, so a
// policy that keeps a scratch slice widens to the grid without
// allocating.
func AppendCandidateTargets(dst []topology.SiteID, g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	n := len(dst)
	dst = AppendWithoutReplica(dst, g, f, g.Topology().Siblings(self), self)
	if len(dst) == n {
		dst = NonHolders(g, f, self, dst)
	}
	return dst
}

// NonHolders appends to dst every site other than self that does not hold
// f, in site-id order: the whole grid's replication targets for f. It
// walks the sites 0..NumSites-1 against the sorted g.Replicas(f) once,
// with no HasReplica query per site.
func NonHolders(g scheduler.GridView, f storage.FileID, self topology.SiteID, dst []topology.SiteID) []topology.SiteID {
	reps := g.Replicas(f)
	for s, n := 0, g.NumSites(); s < n; s++ {
		sid := topology.SiteID(s)
		for len(reps) > 0 && reps[0] < sid {
			reps = reps[1:]
		}
		if sid != self && (len(reps) == 0 || reps[0] != sid) {
			dst = append(dst, sid)
		}
	}
	return dst
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
// strategy), ties going to the lowest site id. Sites that already hold
// the file are passed over; when every requester does, nothing is pushed.
type BestClient struct{ Src *rng.Source }

// Name implements scheduler.Dataset.
func (BestClient) Name() string { return "DataBestClient" }

// Decide implements scheduler.Dataset.
func (b BestClient) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	var out []scheduler.Replication
	for _, p := range popular {
		best := topology.SiteID(-1)
		bestCount := 0
		for _, rc := range p.ByRequester {
			if rc.Site == self || rc.Count < bestCount || rc.Count == bestCount && rc.Site > best {
				continue
			}
			if !g.HasReplica(p.File, rc.Site) {
				best, bestCount = rc.Site, rc.Count
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
	return AppendWithoutReplica(nil, g, f, sites, self)
}

// AppendWithoutReplica appends WithoutReplica's sites to dst.
func AppendWithoutReplica(dst []topology.SiteID, g scheduler.GridView, f storage.FileID, sites []topology.SiteID, self topology.SiteID) []topology.SiteID {
	for _, s := range sites {
		if s != self && !g.HasReplica(f, s) {
			dst = append(dst, s)
		}
	}
	return dst
}
