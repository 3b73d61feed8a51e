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

// TestIncrementalNextMatchesScan drives a randomized schedule of starts,
// cancels (next among them), outages to zero bandwidth and back, and
// same-instant starts of equal transfers that finish at the same time,
// under both sharing policies. After every change point, completions
// included, the tracked next completion must be the flow a full scan of
// finishAt picks (checkInvariants compares them).
func TestIncrementalNextMatchesScan(t *testing.T) {
	for _, policy := range []SharingPolicy{EqualShare, MaxMinFair} {
		t.Run(policy.String(), func(t *testing.T) {
			eng := desim.New()
			topo, err := topology.NewHierarchical(
				topology.Config{Sites: 12, RegionFanout: 3, Bandwidth: 5e6}, rng.New(5))
			if err != nil {
				t.Fatal(err)
			}
			n := New(eng, topo, policy)
			r := rng.New(17)
			var open []*Flow
			completions, nextCancels := 0, 0
			var done func(*Flow)
			done = func(f *Flow) {
				completions++
				for j, o := range open {
					if o == f {
						open = append(open[:j], open[j+1:]...)
						break
					}
				}
				checkInvariants(t, n)
			}
			start := func(src, dst topology.SiteID, size float64) {
				open = append(open, n.Transfer(src, dst, size, done))
				checkInvariants(t, n)
			}
			for i := 0; i < 800; i++ {
				switch r.Intn(6) {
				case 0: // a random transfer
					start(topology.SiteID(r.Intn(12)), topology.SiteID(r.Intn(12)), 1e6+float64(r.Intn(1e7)))
				case 1: // equal transfers on one route at one instant: equal finishes
					src, dst := topology.SiteID(r.Intn(12)), topology.SiteID(r.Intn(12))
					for k := 1 + r.Intn(3); k > 0; k-- {
						start(src, dst, 4e6)
					}
				case 2: // cancel next, or a random open flow
					if n.next != nil && r.Intn(2) == 0 {
						nextCancels++
						f := n.next
						for j, o := range open {
							if o == f {
								open = append(open[:j], open[j+1:]...)
								break
							}
						}
						n.Cancel(f)
					} else if len(open) > 0 {
						j := r.Intn(len(open))
						f := open[j]
						open = append(open[:j], open[j+1:]...)
						n.Cancel(f)
					}
					checkInvariants(t, n)
				case 3: // take a link down to zero, or restore it
					l := topology.LinkID(r.Intn(topo.NumLinks()))
					if r.Intn(2) == 0 {
						n.SetLinkBandwidth(l, 0)
					} else {
						n.SetLinkBandwidth(l, -1)
					}
					checkInvariants(t, n)
				default: // advance virtual time so completions fire
					eng.RunUntil(eng.Now() + r.Range(0, 3))
				}
			}
			for l := 0; l < topo.NumLinks(); l++ {
				n.SetLinkBandwidth(topology.LinkID(l), -1)
				checkInvariants(t, n)
			}
			eng.Run()
			checkInvariants(t, n)
			if n.ActiveFlows() != 0 || completions == 0 || nextCancels == 0 {
				t.Fatalf("active %d, completions %d, cancels of next %d", n.ActiveFlows(), completions, nextCancels)
			}
		})
	}
}
