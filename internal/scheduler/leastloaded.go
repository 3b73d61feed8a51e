package scheduler

import (
	"slices"

	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// LeastLoadedSet returns the candidates with the minimum load, in
// candidate order, reusing dst's storage; with a nil dst and no
// candidates it returns nil. It never writes into cands, so cands may be a
// slice the GridView owns (a GIS snapshot entry). This is the least-load
// tie rule; LeastLoadedSetFlat is its form for loads held in a slice.
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

// LeastLoadedSetFlat returns what LeastLoadedSet returns when each
// candidate c's load is loads[c] (TestLeastLoadedSetFlatMatches pins the
// two together). A caller that holds the loads as one slice, such as a
// GIS snapshot, pays no call per candidate, and the set is collected
// without a branch per candidate: one pass finds the minimum, a second
// writes every candidate and keeps those that have it. dst's storage
// grows to len(cands).
func LeastLoadedSetFlat(loads []int, cands, dst []topology.SiteID) []topology.SiteID {
	if len(cands) == 0 {
		return dst[:0]
	}
	best := loads[cands[0]]
	for _, c := range cands[1:] {
		best = min(best, loads[c])
	}
	dst = slices.Grow(dst[:0], len(cands))[:len(cands)]
	n := 0
	for _, c := range cands {
		dst[n] = c
		if loads[c] == best {
			n++
		}
	}
	return dst[:n]
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
