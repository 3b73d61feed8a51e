// Package schedtest provides a scriptable GridView fake for unit-testing
// scheduling algorithms in isolation from the full simulator.
package schedtest

import (
	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// View is a fake scheduler.GridView backed by plain maps.
type View struct {
	Topo       *topology.Topology
	Loads      map[topology.SiteID]int
	Reps       map[storage.FileID][]topology.SiteID
	Sizes      map[storage.FileID]float64
	Congest    map[[2]topology.SiteID]int
	CECounts   map[topology.SiteID]int // per-site CEs; absent = 1
	RatePerSec float64                 // bytes/sec used by PredictTransfer; 0 = instant
}

// NewView builds a fake over a star topology with n sites.
func NewView(n int) *View {
	topo, err := topology.NewStar(n, 10e6)
	if err != nil {
		panic(err)
	}
	return &View{
		Topo:       topo,
		Loads:      make(map[topology.SiteID]int),
		Reps:       make(map[storage.FileID][]topology.SiteID),
		Sizes:      make(map[storage.FileID]float64),
		Congest:    make(map[[2]topology.SiteID]int),
		RatePerSec: 10e6,
	}
}

// NewHierView builds a fake over a hierarchical topology.
func NewHierView(sites, fanout int) *View {
	topo, err := topology.NewHierarchical(topology.Config{Sites: sites, RegionFanout: fanout, Bandwidth: 10e6}, rng.New(7))
	if err != nil {
		panic(err)
	}
	v := NewView(1)
	v.Topo = topo
	return v
}

// NumSites implements scheduler.GridView.
func (v *View) NumSites() int { return v.Topo.NumSites() }

// Load implements scheduler.GridView.
func (v *View) Load(s topology.SiteID) int { return v.Loads[s] }

// CEs implements scheduler.GridView.
func (v *View) CEs(s topology.SiteID) int {
	if v.CECounts == nil {
		return 1
	}
	if n, ok := v.CECounts[s]; ok {
		return n
	}
	return 1
}

// Replicas implements scheduler.GridView.
func (v *View) Replicas(f storage.FileID) []topology.SiteID { return v.Reps[f] }

// LeastLoadedHolders implements scheduler.GridView with a naive two-pass
// scan: find the minimum load among the holders, then keep the holders
// that have it.
func (v *View) LeastLoadedHolders(f storage.FileID) []topology.SiteID {
	reps := v.Reps[f]
	if len(reps) == 0 {
		return nil
	}
	lo := v.Loads[reps[0]]
	for _, r := range reps {
		lo = min(lo, v.Loads[r])
	}
	var out []topology.SiteID
	for _, r := range reps {
		if v.Loads[r] == lo {
			out = append(out, r)
		}
	}
	return out
}

// HasReplica implements scheduler.GridView.
func (v *View) HasReplica(f storage.FileID, s topology.SiteID) bool {
	for _, r := range v.Reps[f] {
		if r == s {
			return true
		}
	}
	return false
}

// FileSize implements scheduler.GridView.
func (v *View) FileSize(f storage.FileID) float64 { return v.Sizes[f] }

// Topology implements scheduler.GridView.
func (v *View) Topology() *topology.Topology { return v.Topo }

// Congestion implements scheduler.GridView.
func (v *View) Congestion(a, b topology.SiteID) int { return v.Congest[[2]topology.SiteID{a, b}] }

// PredictTransfer implements scheduler.GridView.
func (v *View) PredictTransfer(a, b topology.SiteID, size float64) float64 {
	if a == b || v.RatePerSec <= 0 {
		return 0
	}
	return size / v.RatePerSec
}
