package netsim

import (
	"math"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
)

// TestIncrementalReflowMatchesFull cross-checks the epoch-marked
// equal-share recompute against a from-scratch evaluation after every
// change point of a randomized admit/cancel/degrade/advance schedule. The
// comparison is exact (==, not within-epsilon): the optimization's whole
// claim is that untouched flows keep bit-identical rates.
func TestIncrementalReflowMatchesFull(t *testing.T) {
	eng := desim.New()
	topo, err := topology.NewHierarchical(
		topology.Config{Sites: 18, RegionFanout: 4, Bandwidth: 5e6}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	n := New(eng, topo, EqualShare)
	r := rng.New(99)

	check := func(step int) {
		t.Helper()
		checkInvariants(t, n)
		for _, f := range n.ordered {
			want := math.Inf(1)
			for _, l := range f.path {
				share := n.linkBandwidth(l) / float64(n.onLink[l])
				if share < want {
					want = share
				}
			}
			if f.rate != want {
				t.Fatalf("step %d: flow %d rate %v != full recompute %v",
					step, f.ID, f.rate, want)
			}
		}
	}

	var open []*Flow
	degraded := topology.LinkID(0)
	for i := 0; i < 600; i++ {
		switch r.Intn(5) {
		case 0, 1: // admit
			src := topology.SiteID(r.Intn(18))
			dst := topology.SiteID(r.Intn(18))
			open = append(open, n.Transfer(src, dst, 1e6+float64(r.Intn(1e7)), nil))
		case 2: // cancel a random open flow
			if len(open) > 0 {
				j := r.Intn(len(open))
				n.Cancel(open[j])
				open = append(open[:j], open[j+1:]...)
			}
		case 3: // degrade or restore one link
			if r.Intn(2) == 0 {
				degraded = topology.LinkID(r.Intn(topo.NumLinks()))
				n.SetLinkBandwidth(degraded, float64(r.Intn(3))*1e5)
			} else {
				n.SetLinkBandwidth(degraded, -1)
			}
		case 4: // advance virtual time so completions fire
			eng.RunUntil(eng.Now() + r.Range(0, 2))
		}
		check(i)
	}
	// Restore every link so stalled flows resume, then drain to completion.
	for l := 0; l < topo.NumLinks(); l++ {
		n.SetLinkBandwidth(topology.LinkID(l), -1)
		check(600 + l)
	}
	eng.Run()
	check(-1)
	if n.ActiveFlows() != 0 {
		t.Fatalf("flows still active after drain: %d", n.ActiveFlows())
	}
}
