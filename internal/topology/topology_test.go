package topology

import (
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
)

func mustHier(t *testing.T, sites, fanout int) *Topology {
	t.Helper()
	topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 10e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestHierarchicalShape(t *testing.T) {
	topo := mustHier(t, 30, 6)
	if topo.NumSites() != 30 {
		t.Fatalf("NumSites = %d", topo.NumSites())
	}
	// 1 root + 5 regions + 30 leaves => 36 nodes, 35 links.
	if topo.NumLinks() != 35 {
		t.Fatalf("NumLinks = %d, want 35", topo.NumLinks())
	}
	for s := 0; s < 30; s++ {
		if d := topo.SiteDepth(SiteID(s)); d != 2 {
			t.Fatalf("site %d depth = %d, want 2", s, d)
		}
	}
}

func TestRouteSelf(t *testing.T) {
	topo := mustHier(t, 10, 3)
	if len(topo.AppendRoute(nil, 4, 4)) != 0 {
		t.Fatal("self route should be empty")
	}
	if topo.Hops(4, 4) != 0 {
		t.Fatal("self hops should be 0")
	}
}

func TestRouteValidity(t *testing.T) {
	topo := mustHier(t, 30, 6)
	for a := 0; a < 30; a++ {
		for b := 0; b < 30; b++ {
			path := topo.AppendRoute(nil, SiteID(a), SiteID(b))
			if a == b {
				continue
			}
			if len(path) < 2 {
				t.Fatalf("route %d->%d too short: %d links", a, b, len(path))
			}
			// Path must be a connected chain of links.
			cur := topo.siteNode[a]
			for i, lid := range path {
				l := topo.Link(lid)
				switch cur {
				case l.A:
					cur = l.B
				case l.B:
					cur = l.A
				default:
					t.Fatalf("route %d->%d link %d not adjacent", a, b, i)
				}
			}
			if cur != topo.siteNode[b] {
				t.Fatalf("route %d->%d does not end at destination", a, b)
			}
		}
	}
}

func TestRouteSymmetricLength(t *testing.T) {
	topo := mustHier(t, 20, 4)
	for a := 0; a < 20; a++ {
		for b := 0; b < 20; b++ {
			if topo.Hops(SiteID(a), SiteID(b)) != topo.Hops(SiteID(b), SiteID(a)) {
				t.Fatalf("asymmetric hops %d<->%d", a, b)
			}
		}
	}
}

func TestSiblingHops(t *testing.T) {
	topo := mustHier(t, 30, 6)
	for s := 0; s < 30; s++ {
		sibs := topo.Siblings(SiteID(s))
		if len(sibs) == 0 {
			t.Fatalf("site %d has no siblings", s)
		}
		for _, sib := range sibs {
			if h := topo.Hops(SiteID(s), sib); h != 2 {
				t.Fatalf("sibling hop count = %d, want 2", h)
			}
		}
	}
	// Non-siblings cross the root: 4 hops in a 3-tier tree.
	s0 := SiteID(0)
	sibs := map[SiteID]bool{}
	for _, sib := range topo.Siblings(s0) {
		sibs[sib] = true
	}
	for s := 1; s < 30; s++ {
		if !sibs[SiteID(s)] {
			if h := topo.Hops(s0, SiteID(s)); h != 4 {
				t.Fatalf("cross-region hops = %d, want 4", h)
			}
		}
	}
}

func TestNewTieredFourLevels(t *testing.T) {
	// GriPhyN vision: 1 root → 2 regions → 3 institutions each → 2
	// workstation-class sites each: 12 sites at depth 3.
	topo, err := NewTiered([]int{2, 3, 2}, []float64{100e6, 10e6, 1e6})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 12 {
		t.Fatalf("NumSites = %d, want 12", topo.NumSites())
	}
	for s := 0; s < 12; s++ {
		if d := topo.SiteDepth(SiteID(s)); d != 3 {
			t.Fatalf("site %d depth %d", s, d)
		}
	}
	// Deepest separation: 6 hops (3 up + 3 down).
	if h := topo.Hops(0, 11); h != 6 {
		t.Fatalf("cross-grid hops = %d, want 6", h)
	}
	// Sibling sites: 2 hops.
	sibs := topo.Siblings(0)
	if len(sibs) != 1 {
		t.Fatalf("siblings = %v, want exactly 1", sibs)
	}
	if h := topo.Hops(0, sibs[0]); h != 2 {
		t.Fatalf("sibling hops = %d", h)
	}
	// Tiered bandwidths land on the right links: leaf uplinks are 1 MB/s.
	leafUp := topo.AppendRoute(nil, 0, sibs[0])[0]
	if topo.Link(leafUp).Bandwidth != 1e6 {
		t.Fatalf("leaf uplink bw = %v", topo.Link(leafUp).Bandwidth)
	}
	// Backbone (root→region) links are 100 MB/s.
	for _, l := range topo.Links() {
		if topo.IsBackbone(l.ID) && l.Bandwidth != 100e6 {
			t.Fatalf("backbone bw = %v", l.Bandwidth)
		}
	}
}

func TestNewTieredMatchesHierarchicalShape(t *testing.T) {
	// NewTiered([]int{r, k}) has r regions × k sites, same depth layout
	// as NewHierarchical for divisible site counts.
	topo, err := NewTiered([]int{5, 6}, []float64{10e6})
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 30 || topo.NumLinks() != 35 {
		t.Fatalf("sites=%d links=%d", topo.NumSites(), topo.NumLinks())
	}
	// Route validity across the tree.
	for a := 0; a < 30; a += 7 {
		for b := 0; b < 30; b += 5 {
			path := topo.AppendRoute(nil, SiteID(a), SiteID(b))
			if (a == b) != (len(path) == 0) {
				t.Fatalf("route %d->%d length %d", a, b, len(path))
			}
		}
	}
}

func TestNewTieredErrors(t *testing.T) {
	if _, err := NewTiered(nil, []float64{1}); err == nil {
		t.Error("empty fanouts accepted")
	}
	if _, err := NewTiered([]int{2, 0}, []float64{1}); err == nil {
		t.Error("zero fanout accepted")
	}
	if _, err := NewTiered([]int{2}, nil); err == nil {
		t.Error("missing bandwidths accepted")
	}
	if _, err := NewTiered([]int{2}, []float64{-1}); err == nil {
		t.Error("negative bandwidth accepted")
	}
}

func TestBackboneBandwidth(t *testing.T) {
	topo, err := NewHierarchical(Config{Sites: 8, RegionFanout: 4, Bandwidth: 10e6, BackboneBandwidth: 100e6}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	var access, backbone int
	for _, l := range topo.Links() {
		switch l.Bandwidth {
		case 10e6:
			access++
		case 100e6:
			backbone++
		default:
			t.Fatalf("unexpected bandwidth %v", l.Bandwidth)
		}
	}
	// 8 leaves (access), 2 regions (backbone).
	if access != 8 || backbone != 2 {
		t.Fatalf("access=%d backbone=%d", access, backbone)
	}
	// Default: zero backbone means uniform bandwidth.
	topo2 := mustHier(t, 8, 4)
	for _, l := range topo2.Links() {
		if l.Bandwidth != 10e6 {
			t.Fatalf("uniform topology has link at %v", l.Bandwidth)
		}
	}
}

func TestStar(t *testing.T) {
	topo, err := NewStar(5, 1e6)
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumLinks() != 5 {
		t.Fatalf("star links = %d, want 5", topo.NumLinks())
	}
	if topo.Hops(0, 1) != 2 {
		t.Fatalf("star hops = %d, want 2", topo.Hops(0, 1))
	}
	if len(topo.Siblings(0)) != 4 {
		t.Fatalf("star siblings = %d, want 4", len(topo.Siblings(0)))
	}
}

func TestSingleSite(t *testing.T) {
	topo, err := NewHierarchical(Config{Sites: 1, RegionFanout: 4, Bandwidth: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if topo.NumSites() != 1 {
		t.Fatal("want 1 site")
	}
	if len(topo.AppendRoute(nil, 0, 0)) != 0 {
		t.Fatal("self route must be empty")
	}
}

func TestInvalidConfigs(t *testing.T) {
	cases := []Config{
		{Sites: 0, RegionFanout: 2, Bandwidth: 1},
		{Sites: 3, RegionFanout: 0, Bandwidth: 1},
		{Sites: 3, RegionFanout: 2, Bandwidth: 0},
		{Sites: -1, RegionFanout: 2, Bandwidth: 1},
	}
	for _, c := range cases {
		if _, err := NewHierarchical(c, rng.New(1)); err == nil {
			t.Errorf("config %+v: expected error", c)
		}
	}
	if _, err := NewStar(0, 1); err == nil {
		t.Error("NewStar(0): expected error")
	}
	if _, err := NewStar(2, -1); err == nil {
		t.Error("NewStar negative bw: expected error")
	}
}

func TestDeterministicConstruction(t *testing.T) {
	a := mustHier(t, 30, 6)
	b := mustHier(t, 30, 6)
	for s := 0; s < 30; s++ {
		sa, sb := a.Siblings(SiteID(s)), b.Siblings(SiteID(s))
		if len(sa) != len(sb) {
			t.Fatal("non-deterministic construction")
		}
		for i := range sa {
			if sa[i] != sb[i] {
				t.Fatal("non-deterministic sibling sets")
			}
		}
	}
}

// Property: for random shapes, every pairwise route is a valid chain
// from src to dst and hop counts are symmetric.
func TestQuickRoutes(t *testing.T) {
	f := func(seed uint64, ns, nf uint8) bool {
		sites := int(ns)%40 + 1
		fanout := int(nf)%8 + 1
		topo, err := NewHierarchical(Config{Sites: sites, RegionFanout: fanout, Bandwidth: 1e6}, rng.New(seed))
		if err != nil {
			return false
		}
		for a := 0; a < sites; a++ {
			for b := 0; b < sites; b++ {
				path := topo.AppendRoute(nil, SiteID(a), SiteID(b))
				if (a == b) != (len(path) == 0) {
					return false
				}
				cur := topo.siteNode[a]
				for _, lid := range path {
					l := topo.Link(lid)
					switch cur {
					case l.A:
						cur = l.B
					case l.B:
						cur = l.A
					default:
						return false
					}
				}
				if cur != topo.siteNode[b] {
					return false
				}
				if topo.Hops(SiteID(a), SiteID(b)) != topo.Hops(SiteID(b), SiteID(a)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
