package scheduler

import (
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// LeastLoadedSet returns the candidates with the minimum load, in
// candidate order, reusing dst's storage; with a nil dst and no
// candidates it returns nil. It never writes into cands, so cands may be a
// slice the GridView owns (a GIS snapshot entry).
func LeastLoadedSet(load func(topology.SiteID) int, cands, dst []topology.SiteID) []topology.SiteID {
	dst = dst[:0]
	best := 0
	for i, c := range cands {
		l := load(c)
		switch {
		case i == 0 || l < best:
			best = l
			dst = append(dst[:0], c)
		case l == best:
			dst = append(dst, c)
		}
	}
	return dst
}

// PickLeastLoaded returns the least-loaded candidate. Ties are broken
// uniformly at random with one rng.Pick draw over the tied candidates in
// candidate order, so no site is systematically preferred; with a nil tie
// source the first of them wins. The tie set is collected in *scratch,
// which is reused across calls, and cands is never written. It panics on
// an empty candidate list.
func PickLeastLoaded(g GridView, cands []topology.SiteID, tie *rng.Source, scratch *[]topology.SiteID) topology.SiteID {
	if len(cands) == 0 {
		panic("scheduler: PickLeastLoaded with no candidates")
	}
	best := LeastLoadedSet(g.Load, cands, *scratch)
	*scratch = best
	if len(best) == 1 || tie == nil {
		return best[0]
	}
	return rng.Pick(tie, best)
}
