// Package topology models the hierarchical (GriPhyN-style) network that
// connects Data Grid sites.
//
// The paper assumes "a hierarchical network topology much like that
// envisioned by the GriPhyN project": a tree with a root hub, regional
// centers beneath it, and leaf sites beneath the regions. Every edge is a
// bidirectional link with a nominal bandwidth. All sites sit at one depth,
// so the route between two sites, a climb to their lowest common ancestor
// and back down, is derived from each node's parent when asked for: no
// route is stored, and construction is linear in sites.
package topology

import (
	"fmt"
	"slices"

	"chicsim/internal/rng"
)

// NodeID identifies a node in the topology (interior router or leaf site).
type NodeID int

// LinkID identifies a bidirectional link.
type LinkID int

// SiteID identifies a leaf site (dense 0..NumSites-1, distinct from NodeID).
type SiteID int

// Link is a bidirectional network link with a nominal bandwidth in
// bytes/second shared by all concurrent transfers that cross it.
type Link struct {
	ID        LinkID
	A, B      NodeID
	Bandwidth float64 // bytes per second
}

// Topology is an immutable routed network. Build one with NewHierarchical,
// NewTiered or NewStar and share it freely: all methods are read-only
// after construction.
type Topology struct {
	links    []Link
	parent   []NodeID   // node -> parent node; -1 for the root
	up       []LinkID   // node -> link to its parent; -1 for the root
	siteNode []NodeID   // site -> leaf node
	depth    int        // depth of every leaf site
	siblings [][]SiteID // site -> same-parent sites, ascending
}

// Config controls hierarchy construction.
type Config struct {
	Sites        int     // number of leaf sites (> 0)
	RegionFanout int     // leaf sites per regional center (> 0)
	Bandwidth    float64 // nominal bandwidth of access links, bytes/sec (> 0)
	// BackboneBandwidth, when > 0, overrides Bandwidth for the links
	// between the root and regional centers — GriPhyN-style provisioned
	// backbones. 0 means backbone links share the access bandwidth (the
	// paper's single "connectivity bandwidth").
	BackboneBandwidth float64
}

// NewHierarchical builds a three-tier tree: one root, ceil(Sites/Fanout)
// regional centers, and Sites leaves distributed round-robin over regions.
// The rand source only breaks ordering ties (region assignment shuffle) so
// that site index does not correlate with region membership.
func NewHierarchical(cfg Config, src *rng.Source) (*Topology, error) {
	if cfg.Sites <= 0 {
		return nil, fmt.Errorf("topology: Sites = %d, must be > 0", cfg.Sites)
	}
	if cfg.RegionFanout <= 0 {
		return nil, fmt.Errorf("topology: RegionFanout = %d, must be > 0", cfg.RegionFanout)
	}
	if cfg.Bandwidth <= 0 {
		return nil, fmt.Errorf("topology: Bandwidth = %v, must be > 0", cfg.Bandwidth)
	}
	backbone := cfg.BackboneBandwidth
	if backbone <= 0 {
		backbone = cfg.Bandwidth
	}
	t := &Topology{}
	root := t.addNode(-1, cfg.Bandwidth)

	regions := (cfg.Sites + cfg.RegionFanout - 1) / cfg.RegionFanout
	regionNodes := make([]NodeID, regions)
	for r := 0; r < regions; r++ {
		regionNodes[r] = t.addNode(root, backbone)
	}

	// Assign sites to regions round-robin over a shuffled site order.
	order := make([]int, cfg.Sites)
	for i := range order {
		order[i] = i
	}
	if src != nil {
		rng.Shuffle(src, order)
	}
	t.siteNode = make([]NodeID, cfg.Sites)
	for i, site := range order {
		t.siteNode[site] = t.addNode(regionNodes[i%regions], cfg.Bandwidth)
	}
	t.indexSites()
	return t, nil
}

// NewTiered builds a general GriPhyN-style hierarchy with an arbitrary
// number of tiers: fanouts[i] children per node at depth i, with leaves at
// depth len(fanouts) becoming the sites. bandwidths[i] is the bandwidth of
// links from depth i to depth i+1; pass a single-element slice for uniform
// links. The GriPhyN vision is four tiers (CERN → regional centers →
// institutions → workstations); the paper's three-tier layout is
// NewTiered([]int{regions, sitesPerRegion}, ...).
func NewTiered(fanouts []int, bandwidths []float64) (*Topology, error) {
	if len(fanouts) == 0 {
		return nil, fmt.Errorf("topology: NewTiered needs at least one tier")
	}
	for i, f := range fanouts {
		if f <= 0 {
			return nil, fmt.Errorf("topology: tier %d fanout %d", i, f)
		}
	}
	if len(bandwidths) == 0 {
		return nil, fmt.Errorf("topology: NewTiered needs link bandwidths")
	}
	for i, b := range bandwidths {
		if b <= 0 {
			return nil, fmt.Errorf("topology: tier %d bandwidth %v", i, b)
		}
	}
	t := &Topology{}
	frontier := []NodeID{t.addNode(-1, 0)}
	for depth, fanout := range fanouts {
		bw := bandwidths[min(depth, len(bandwidths)-1)]
		var next []NodeID
		for _, parent := range frontier {
			for c := 0; c < fanout; c++ {
				next = append(next, t.addNode(parent, bw))
			}
		}
		frontier = next
	}
	t.siteNode = frontier
	t.indexSites()
	return t, nil
}

// NewStar builds a degenerate hierarchy: every site hangs directly off one
// hub, as in NewTiered([]int{sites}, []float64{bandwidth}). Useful for
// tests and for isolating contention at a single shared point.
func NewStar(sites int, bandwidth float64) (*Topology, error) {
	return NewTiered([]int{sites}, []float64{bandwidth})
}

func (t *Topology) addNode(parent NodeID, bw float64) NodeID {
	id := NodeID(len(t.parent))
	up := LinkID(-1)
	if parent >= 0 {
		up = LinkID(len(t.links))
		t.links = append(t.links, Link{ID: up, A: parent, B: id, Bandwidth: bw})
	}
	t.parent = append(t.parent, parent)
	t.up = append(t.up, up)
	return id
}

// indexSites checks that every site sits at one depth and builds the
// sibling lists from each parent's children, in O(sites × fanout).
func (t *Topology) indexSites() {
	kids := make([][]SiteID, len(t.parent)) // node -> child sites, ascending
	total := 0                              // Σ c·(c−1) over parents with c child sites
	for s, nid := range t.siteNode {
		d := 0
		for x := nid; t.parent[x] >= 0; x = t.parent[x] {
			d++
		}
		if s > 0 && d != t.depth {
			panic(fmt.Sprintf("topology: site %d at depth %d, site 0 at %d", s, d, t.depth))
		}
		t.depth = d
		p := t.parent[nid]
		total += 2 * len(kids[p])
		kids[p] = append(kids[p], SiteID(s))
	}
	// One backing array holds every list, each capped so that a caller's
	// append cannot run into the next.
	all := make([]SiteID, 0, total)
	t.siblings = make([][]SiteID, len(t.siteNode))
	for s, nid := range t.siteNode {
		if k := kids[t.parent[nid]]; len(k) > 1 {
			i, _ := slices.BinarySearch(k, SiteID(s))
			all = append(append(all, k[:i]...), k[i+1:]...)
			t.siblings[s] = all[len(all)-len(k)+1 : len(all) : len(all)]
		}
	}
}

// NumSites returns the number of leaf sites.
func (t *Topology) NumSites() int { return len(t.siteNode) }

// NumLinks returns the number of links.
func (t *Topology) NumLinks() int { return len(t.links) }

// Link returns the link with the given id.
func (t *Topology) Link(id LinkID) Link { return t.links[id] }

// Links returns all links (do not mutate).
func (t *Topology) Links() []Link { return t.links }

// AppendRoute appends the ordered links from src to dst to buf and
// returns the extended slice: src's uplinks climbing to the lowest common
// ancestor, then dst's uplinks in descent order. Nothing is appended when
// src == dst. It allocates only when buf lacks the capacity.
func (t *Topology) AppendRoute(buf []LinkID, src, dst SiteID) []LinkID {
	k := t.Hops(src, dst) / 2
	n := len(buf)
	buf = slices.Grow(buf, 2*k)[:n+2*k]
	x, y := t.siteNode[src], t.siteNode[dst]
	for i := 0; i < k; i++ {
		buf[n+i], buf[n+2*k-1-i] = t.up[x], t.up[y]
		x, y = t.parent[x], t.parent[y]
	}
	return buf
}

// Hops returns the number of links on the route between two sites: 0 for
// a site to itself, at least 2 between distinct sites.
func (t *Topology) Hops(src, dst SiteID) int {
	x, y := t.siteNode[src], t.siteNode[dst]
	h := 0
	for x != y {
		x, y = t.parent[x], t.parent[y]
		h += 2
	}
	return h
}

// Siblings returns the sites that share src's regional parent, excluding
// src itself, in ascending order. These are the "neighbors" used by the
// DataLeastLoaded dataset scheduler. The returned slice is shared;
// callers must not mutate it.
func (t *Topology) Siblings(src SiteID) []SiteID { return t.siblings[src] }

// IsBackbone reports whether the link connects the root to an interior
// node (a regional center): the shared top-tier links of the hierarchy.
// When the sites hang straight off the root, no link is backbone.
func (t *Topology) IsBackbone(l LinkID) bool {
	return t.parent[t.links[l].A] == -1 && t.depth > 1
}

// SiteDepth returns the tree depth of the site's leaf node, the same for
// every site.
func (t *Topology) SiteDepth(SiteID) int { return t.depth }
