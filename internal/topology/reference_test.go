package topology

import (
	"slices"
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
)

// refTables is the stored-table design the on-demand methods replaced: a
// route and a hop count for every ordered site pair, each route found by
// a pairwise climb to the lowest common ancestor, and sibling lists found
// by an O(sites²) scan. It is the reference AppendRoute, Hops and
// Siblings must equal element for element.
type refTables struct {
	routes   [][][]LinkID
	hops     [][]int
	siblings [][]SiteID
}

func buildRefTables(t *Topology) refTables {
	depth := make([]int, len(t.parent))
	for x, p := range t.parent {
		if p >= 0 {
			depth[x] = depth[p] + 1 // parents are added before their children
		}
	}
	// route climbs whichever endpoint is deeper (src on a tie), collecting
	// src's uplinks in climb order and dst's in descent order.
	route := func(a, b NodeID) []LinkID {
		var up, down []LinkID
		for a != b {
			if depth[a] >= depth[b] {
				up = append(up, t.up[a])
				a = t.parent[a]
			} else {
				down = append(down, t.up[b])
				b = t.parent[b]
			}
		}
		for i := len(down) - 1; i >= 0; i-- {
			up = append(up, down[i])
		}
		return up
	}
	n := len(t.siteNode)
	ref := refTables{routes: make([][][]LinkID, n), hops: make([][]int, n), siblings: make([][]SiteID, n)}
	for a := 0; a < n; a++ {
		ref.routes[a] = make([][]LinkID, n)
		ref.hops[a] = make([]int, n)
		for b := 0; b < n; b++ {
			ref.routes[a][b] = route(t.siteNode[a], t.siteNode[b])
			ref.hops[a][b] = len(ref.routes[a][b])
		}
		for s, nid := range t.siteNode {
			if s != a && t.parent[nid] == t.parent[t.siteNode[a]] {
				ref.siblings[a] = append(ref.siblings[a], SiteID(s))
			}
		}
	}
	return ref
}

// checkAgainstRef compares every site pair's route, hop count and the
// sibling lists with the reference tables.
func checkAgainstRef(t *testing.T, name string, topo *Topology) {
	t.Helper()
	ref := buildRefTables(topo)
	n := topo.NumSites()
	prefix := []LinkID{-7}
	for a := 0; a < n; a++ {
		for b := 0; b < n; b++ {
			src, dst := SiteID(a), SiteID(b)
			if got := topo.AppendRoute(nil, src, dst); !slices.Equal(got, ref.routes[a][b]) {
				t.Fatalf("%s: AppendRoute(%d, %d) = %v, want %v", name, a, b, got, ref.routes[a][b])
			}
			// Appending keeps what the buffer already holds.
			if got := topo.AppendRoute(prefix, src, dst); got[0] != -7 || !slices.Equal(got[1:], ref.routes[a][b]) {
				t.Fatalf("%s: AppendRoute(prefix, %d, %d) = %v", name, a, b, got)
			}
			if got := topo.Hops(src, dst); got != ref.hops[a][b] {
				t.Fatalf("%s: Hops(%d, %d) = %d, want %d", name, a, b, got, ref.hops[a][b])
			}
		}
		if got := topo.Siblings(SiteID(a)); !slices.Equal(got, ref.siblings[a]) {
			t.Fatalf("%s: Siblings(%d) = %v, want %v", name, a, got, ref.siblings[a])
		}
	}
}

func TestOnDemandMatchesReferenceTables(t *testing.T) {
	for _, fanouts := range [][]int{{4}, {3, 4}, {2, 3, 2}, {2, 2, 3, 2}} {
		topo, err := NewTiered(fanouts, []float64{100e6, 10e6})
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, "tiered", topo)
	}
	for _, sites := range []int{1, 2, 17} {
		topo, err := NewStar(sites, 1e6)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstRef(t, "star", topo)
	}
}

// Property: on random NewHierarchical shapes, routes, hop counts and
// siblings equal the reference tables.
func TestQuickOnDemandMatchesReference(t *testing.T) {
	f := func(seed uint64, ns, nf uint8) bool {
		sites := int(ns)%60 + 1
		fanout := int(nf)%9 + 1
		topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 1e6}, rng.New(seed))
		if err != nil {
			return false
		}
		checkAgainstRef(t, "hierarchical", topo)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestHopsAndAppendRouteDoNotAllocate(t *testing.T) {
	topo, err := NewTiered([]int{3, 4, 5}, []float64{1e6})
	if err != nil {
		t.Fatal(err)
	}
	n := topo.NumSites()
	buf := make([]LinkID, 0, 2*topo.SiteDepth(0))
	i := 0
	sum := 0
	op := func() {
		src, dst := SiteID(i%n), SiteID((i*7+3)%n)
		sum += topo.Hops(src, dst)
		buf = topo.AppendRoute(buf[:0], src, dst)
		i++
	}
	if allocs := testing.AllocsPerRun(1000, op); allocs != 0 {
		t.Fatalf("Hops + AppendRoute into a sized buffer allocate %v/op, want 0", allocs)
	}
	if sum == 0 {
		t.Fatal("no route crossed a link")
	}
}

// TestConstructionLinearInSites builds a 100k-site hierarchy, which the
// stored tables would have needed 10¹⁰ routes for, and bounds its heap
// allocations by a small constant times sites. Unlike wall time, the
// count is deterministic.
func TestConstructionLinearInSites(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 100k-site topology")
	}
	const sites = 100_000
	var topo *Topology
	allocs := testing.AllocsPerRun(1, func() {
		var err error
		topo, err = NewHierarchical(Config{Sites: sites, RegionFanout: 25, Bandwidth: 1e6}, rng.New(1))
		if err != nil {
			t.Fatal(err)
		}
	})
	if allocs > sites/2 {
		t.Fatalf("NewHierarchical(%d sites) made %v allocations, want ≤ %d", sites, allocs, sites/2)
	}
	if h := topo.Hops(0, sites-1); h != 2 && h != 4 {
		t.Fatalf("Hops(0, %d) = %d", sites-1, h)
	}
}

func TestIsBackbone(t *testing.T) {
	hier, err := NewHierarchical(Config{Sites: 10, RegionFanout: 4, Bandwidth: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := NewTiered([]int{2, 3, 2}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	oneTier, err := NewTiered([]int{6}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	star, err := NewStar(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		name string
		topo *Topology
		want int // root → interior-node links
	}{{"hierarchical", hier, 3}, {"tiered", tiered, 2}, {"one-tier", oneTier, 0}, {"star", star, 0}} {
		got := 0
		for _, l := range tc.topo.Links() {
			if tc.topo.IsBackbone(l.ID) {
				got++
				if tc.topo.parent[l.A] != -1 {
					t.Errorf("%s: link %d below the root is backbone", tc.name, l.ID)
				}
			}
		}
		if got != tc.want {
			t.Errorf("%s: %d backbone links, want %d", tc.name, got, tc.want)
		}
	}
}
