// Package catalog implements the grid-wide replica catalog: a mapping from
// dataset to the set of sites currently holding a copy.
//
// The paper assumes schedulers "may need external information like ... the
// location of a dataset", obtained from an information service such as the
// Globus replica catalog / MDS. Sites register replicas when a transfer or
// replication completes and deregister them on LRU eviction.
//
// File ids are dense small integers (the workload generator numbers files
// 0..N−1), so the catalog stores everything in file-indexed slices instead
// of maps: a size array and one sorted replica list per file, maintained
// incrementally on Register/Deregister. Hot readers (placement, fetch
// source selection, the GIS snapshot) index straight into these arrays —
// no map lookups, no per-query sorting, no per-query allocation.
package catalog

import (
	"fmt"

	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// Catalog maps each file to the ordered set of sites holding it. Orderings
// are deterministic (sorted by site id) so scheduler tie-breaking is
// reproducible.
type Catalog struct {
	sizes   []float64           // by FileID, valid where defined[f]
	defined []bool              // by FileID
	repl    [][]topology.SiteID // sorted replica sites per FileID
	files   int                 // number of defined files
}

// New returns an empty catalog.
func New() *Catalog { return &Catalog{} }

// growTo extends the file-indexed arrays to cover id f.
func (c *Catalog) growTo(f storage.FileID) {
	for int(f) >= len(c.repl) {
		c.repl = append(c.repl, nil)
		c.sizes = append(c.sizes, 0)
		c.defined = append(c.defined, false)
	}
}

// DefineFile registers a dataset's size. Must be called once per file
// before Register. File ids must be non-negative (they index the
// catalog's dense storage).
func (c *Catalog) DefineFile(f storage.FileID, size float64) error {
	if f < 0 {
		return fmt.Errorf("catalog: negative file id %d", f)
	}
	if size <= 0 {
		return fmt.Errorf("catalog: file %d with non-positive size %v", f, size)
	}
	c.growTo(f)
	if c.defined[f] {
		return fmt.Errorf("catalog: file %d already defined", f)
	}
	c.defined[f] = true
	c.sizes[f] = size
	c.files++
	return nil
}

// Size returns a file's size in bytes; ok is false for unknown files.
func (c *Catalog) Size(f storage.FileID) (size float64, ok bool) {
	if f < 0 || int(f) >= len(c.defined) || !c.defined[f] {
		return 0, false
	}
	return c.sizes[f], true
}

// NumFiles returns the number of defined files.
func (c *Catalog) NumFiles() int { return c.files }

// FileIDBound returns one past the highest file id the catalog has seen —
// the dense iteration bound for snapshotters indexing by file id.
func (c *Catalog) FileIDBound() int { return len(c.defined) }

// Files returns all defined file IDs in ascending order.
func (c *Catalog) Files() []storage.FileID {
	out := make([]storage.FileID, 0, c.files)
	for f, ok := range c.defined {
		if ok {
			out = append(out, storage.FileID(f))
		}
	}
	return out
}

// replicaIndex returns where site sits (or would sit) in f's sorted
// replica list, and whether it is present.
func replicaIndex(lst []topology.SiteID, site topology.SiteID) (int, bool) {
	lo, hi := 0, len(lst)
	for lo < hi {
		mid := (lo + hi) / 2
		if lst[mid] < site {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(lst) && lst[lo] == site
}

// Register records that site holds a replica of f.
func (c *Catalog) Register(f storage.FileID, site topology.SiteID) {
	if f < 0 {
		panic(fmt.Sprintf("catalog: Register with negative file id %d", f))
	}
	c.growTo(f)
	lst := c.repl[f]
	i, ok := replicaIndex(lst, site)
	if ok {
		return
	}
	lst = append(lst, 0)
	copy(lst[i+1:], lst[i:])
	lst[i] = site
	c.repl[f] = lst
}

// Deregister removes site from f's replica set (no-op if absent).
func (c *Catalog) Deregister(f storage.FileID, site topology.SiteID) {
	if f < 0 || int(f) >= len(c.repl) {
		return
	}
	lst := c.repl[f]
	if i, ok := replicaIndex(lst, site); ok {
		copy(lst[i:], lst[i+1:])
		c.repl[f] = lst[:len(lst)-1]
	}
}

// ReplicaList returns the sites holding f, sorted ascending, as the
// catalog's internal list: valid only until the next Register/Deregister
// for f, and must not be mutated or retained.
func (c *Catalog) ReplicaList(f storage.FileID) []topology.SiteID {
	if f < 0 || int(f) >= len(c.repl) {
		return nil
	}
	return c.repl[f]
}

// HasReplica reports whether site holds f.
func (c *Catalog) HasReplica(f storage.FileID, site topology.SiteID) bool {
	if f < 0 || int(f) >= len(c.repl) {
		return false
	}
	_, ok := replicaIndex(c.repl[f], site)
	return ok
}

// ReplicaCount returns the number of sites holding f.
func (c *Catalog) ReplicaCount(f storage.FileID) int {
	if f < 0 || int(f) >= len(c.repl) {
		return 0
	}
	return len(c.repl[f])
}

// CountAt returns how many distinct files the catalog believes are
// replicated at the given site. The watchdog compares this against the
// site store's own resident count to catch accounting drift.
func (c *Catalog) CountAt(site topology.SiteID) int {
	n := 0
	for _, lst := range c.repl {
		if _, ok := replicaIndex(lst, site); ok {
			n++
		}
	}
	return n
}

// Closest returns the replica site nearest to `from` by hop count, ties to
// the lowest site id; ok is false when no replica exists. No other site is
// nearer than 2 hops, so the ascending scan stops at the first that close.
func (c *Catalog) Closest(f storage.FileID, from topology.SiteID, topo *topology.Topology) (topology.SiteID, bool) {
	lst := c.ReplicaList(f)
	if _, ok := replicaIndex(lst, from); ok {
		return from, true
	}
	best, bestHops := topology.SiteID(-1), int(^uint(0)>>1)
	for _, s := range lst {
		if h := topo.Hops(from, s); h < bestHops {
			best, bestHops = s, h
			if h == 2 {
				break
			}
		}
	}
	return best, best >= 0
}
