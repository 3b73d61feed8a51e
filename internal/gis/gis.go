// Package gis implements the Grid Information Service: the component that
// answers "what is the load at site X?" and "where are the replicas of
// file F?" for schedulers.
//
// The paper's modules obtain such external information "either from an
// information service (e.g., the Globus Toolkit's Monitoring and Discovery
// Service, Network Weather Service) or directly from sites". The default
// service is an oracle (fresh answers, as the paper effectively assumes);
// a configurable staleness interval makes the service answer from periodic
// snapshots instead, modelling MDS-style cached indexes (extension, see
// DESIGN.md §6).
//
// A snapshot is a load per site and a holder list per file. The first
// snapshot copies every file's list and starts the catalog's change list.
// Each later refresh reads every site's load, but copies only the holder
// lists of the files that list names (defined, or a holder added or
// removed, since the previous refresh); every other entry already equals
// the catalog's list. A refresh therefore costs O(sites + changed files),
// not O(files + replicas).
//
// Within one snapshot neither a file's holders nor their loads change, so
// the least-loaded holders of a file (what JobDataPresent asks for) are
// computed once per file per snapshot and memoized; a refresh bumps the
// snapshot generation, which invalidates every memo entry at once. A
// recompute reads the snapshot loads as a flat slice indexed by site id
// (DESIGN.md §13).
package gis

import (
	"slices"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// LoadFunc reports a site's current load: the paper defines load as "the
// least number of jobs waiting to run", so this is the incoming-queue
// length.
type LoadFunc func(topology.SiteID) int

// Service answers scheduler queries about grid state.
type Service struct {
	eng      *desim.Engine
	cat      *catalog.Catalog
	topo     *topology.Topology
	loadOf   LoadFunc
	stale    float64 // snapshot refresh period; 0 = oracle
	snapTime desim.Time
	snapLoad []int
	// snapRep holds the snapshotted replica lists, indexed by file id
	// (nil for undefined files). A refresh overwrites the buffer of each
	// file the catalog reports changed and leaves the rest, which still
	// equal the catalog's lists; reusing buffers is indistinguishable from
	// a fresh copy per refresh because no caller retains a returned slice
	// across events.
	snapRep [][]topology.SiteID
	// gen numbers the snapshots; refresh bumps it. memo[f] caches
	// LeastLoadedHolders(f) for snapshot memo[f].gen, so it is stale
	// exactly when that differs from gen.
	gen  uint64
	memo []holdersMemo
	scan []topology.SiteID // the oracle's LeastLoadedHolders answer, reused

	// masterOf records each file's permanent master site, -1 where none
	// is set. Masters are globally advertised even under regional scoping
	// (the initial dataset→site mapping is static, well-known metadata).
	masterOf []topology.SiteID
	// regionOf caches each site's region membership for scoped queries.
	regionOf []map[topology.SiteID]bool
}

// holdersMemo is one file's memoized least-loaded holder set.
type holdersMemo struct {
	gen   uint64
	sites []topology.SiteID
}

// New creates a service. staleness <= 0 yields an oracle.
func New(eng *desim.Engine, cat *catalog.Catalog, topo *topology.Topology, loadOf LoadFunc, staleness float64) *Service {
	s := new(Service)
	s.Reset(eng, cat, topo, loadOf, staleness)
	return s
}

// Reset makes s the service New would return, keeping the arrays of its
// snapshot, its memo and its master table, each entry's holder buffer
// among them, for the next run to fill.
func (s *Service) Reset(eng *desim.Engine, cat *catalog.Catalog, topo *topology.Topology, loadOf LoadFunc, staleness float64) {
	*s = Service{
		eng:      eng,
		cat:      cat,
		topo:     topo,
		loadOf:   loadOf,
		stale:    staleness,
		snapTime: -1,
		snapLoad: s.snapLoad[:0],
		snapRep:  s.snapRep[:0],
		memo:     s.memo[:0],
		scan:     s.scan[:0],
		masterOf: s.masterOf[:0],
	}
}

// Topology exposes the routed topology for hop/neighbor queries.
func (s *Service) Topology() *topology.Topology { return s.topo }

// SetMaster records a file's master site (used for scoped visibility:
// master locations are global knowledge).
func (s *Service) SetMaster(f storage.FileID, site topology.SiteID) {
	for int(f) >= len(s.masterOf) {
		s.masterOf = append(s.masterOf, -1)
	}
	s.masterOf[f] = site
}

// region returns the membership set of viewer's region (viewer+siblings),
// built lazily.
func (s *Service) region(viewer topology.SiteID) map[topology.SiteID]bool {
	if s.regionOf == nil {
		s.regionOf = make([]map[topology.SiteID]bool, s.topo.NumSites())
	}
	if m := s.regionOf[viewer]; m != nil {
		return m
	}
	m := map[topology.SiteID]bool{viewer: true}
	for _, sib := range s.topo.Siblings(viewer) {
		m[sib] = true
	}
	s.regionOf[viewer] = m
	return m
}

// ReplicasVisibleTo returns the replica locations of f that a scheduler at
// `viewer` can see under regional information scoping: replicas within the
// viewer's region plus the file's master site. This models the paper's
// decentralized stance — "each site takes informed decisions based on its
// view of the Grid" — without a global replica index.
func (s *Service) ReplicasVisibleTo(f storage.FileID, viewer topology.SiteID) []topology.SiteID {
	all := s.Replicas(f)
	region := s.region(viewer)
	master := topology.SiteID(-1)
	if f >= 0 && int(f) < len(s.masterOf) {
		master = s.masterOf[f]
	}
	out := make([]topology.SiteID, 0, len(all))
	for _, r := range all {
		if region[r] || r == master {
			out = append(out, r)
		}
	}
	return out
}

// NumSites returns the number of sites.
func (s *Service) NumSites() int { return s.topo.NumSites() }

// FileSize returns the file's size; it panics on unknown files (a
// scheduler asking about an undefined file is a harness bug).
func (s *Service) FileSize(f storage.FileID) float64 {
	size, ok := s.cat.Size(f)
	if !ok {
		panic("gis: size query for undefined file")
	}
	return size
}

func (s *Service) refresh() {
	if s.stale <= 0 {
		return
	}
	now := s.eng.Now()
	first := s.snapTime < 0
	if !first && now-s.snapTime < s.stale {
		return
	}
	s.snapTime = now
	s.gen++
	n := s.topo.NumSites()
	if cap(s.snapLoad) < n {
		s.snapLoad = make([]int, n)
	}
	s.snapLoad = s.snapLoad[:n]
	for i := range s.snapLoad {
		s.snapLoad[i] = s.loadOf(topology.SiteID(i))
	}
	bound := s.cat.FileIDBound()
	for n := len(s.snapRep); n < bound; n++ {
		// An entry from before a Reset keeps its buffers; its memo is
		// stale again.
		if n < cap(s.snapRep) {
			s.snapRep = s.snapRep[:n+1]
			s.snapRep[n] = s.snapRep[n][:0]
		} else {
			s.snapRep = append(s.snapRep, nil)
		}
		if n < cap(s.memo) {
			s.memo = s.memo[:n+1]
			s.memo[n] = holdersMemo{sites: s.memo[n].sites[:0]}
		} else {
			s.memo = append(s.memo, holdersMemo{})
		}
	}
	if first {
		s.cat.TakeChanges() // starts the change list
		for f := 0; f < bound; f++ {
			s.copyHolders(storage.FileID(f))
		}
		return
	}
	for _, f := range s.cat.TakeChanges() {
		s.copyHolders(f)
	}
}

// copyHolders snapshots f's replica list from the catalog.
func (s *Service) copyHolders(f storage.FileID) {
	if _, ok := s.cat.Size(f); !ok {
		s.snapRep[f] = nil
		return
	}
	s.snapRep[f] = append(s.snapRep[f][:0], s.cat.ReplicaList(f)...)
}

// SnapshotAge returns how old (in virtual seconds) the snapshot backing
// answers currently is: 0 for the oracle, and 0 before the first query
// has forced a snapshot. Exposed as an observability probe so a series
// shows how stale the information schedulers were acting on.
func (s *Service) SnapshotAge() float64 {
	if s.stale <= 0 || s.snapTime < 0 {
		return 0
	}
	return s.eng.Now() - s.snapTime
}

// Load returns the (possibly snapshotted) load of a site.
func (s *Service) Load(site topology.SiteID) int {
	if s.stale <= 0 {
		return s.loadOf(site)
	}
	s.refresh()
	return s.snapLoad[site]
}

// Replicas returns the (possibly snapshotted) replica locations of f,
// sorted by site id. The slice is shared and read-only: in oracle mode it
// is the catalog's own list, valid until the next replica registration or
// removal for f; under staleness it is the snapshot entry, valid until the
// next refresh. Every scheduler consumes it within one decision.
func (s *Service) Replicas(f storage.FileID) []topology.SiteID {
	if s.stale <= 0 {
		return s.cat.ReplicaList(f)
	}
	s.refresh()
	if f < 0 || int(f) >= len(s.snapRep) {
		return nil
	}
	return s.snapRep[f]
}

// HasReplica reports whether site currently holds f per the service's view.
func (s *Service) HasReplica(f storage.FileID, site topology.SiteID) bool {
	if s.stale <= 0 {
		return s.cat.HasReplica(f, site)
	}
	s.refresh()
	if f < 0 || int(f) >= len(s.snapRep) {
		return false
	}
	// Snapshot entries are sorted copies of the catalog's lists, and no
	// caller writes into a slice Replicas returns.
	_, ok := slices.BinarySearch(s.snapRep[f], site)
	return ok
}

// LeastLoadedHolders returns the holders of f that have the minimum load,
// sorted by site id, or nil when f has no holders. Within one snapshot
// neither the holders nor their loads change, so snapshot mode computes
// the answer once per file per snapshot and then serves it from the memo;
// the oracle scans on every call. The slice belongs to the service:
// callers must not modify it, and it holds until the next call (oracle)
// or the next refresh (snapshot).
func (s *Service) LeastLoadedHolders(f storage.FileID) []topology.SiteID {
	if s.stale <= 0 {
		s.scan = scheduler.LeastLoadedSet(s.loadOf, s.cat.ReplicaList(f), s.scan)
		return nonEmpty(s.scan)
	}
	s.refresh()
	if f < 0 || int(f) >= len(s.snapRep) {
		return nil
	}
	m := &s.memo[f]
	if m.gen != s.gen {
		m.sites = scheduler.LeastLoadedSetFlat(s.snapLoad, s.snapRep[f], m.sites)
		m.gen = s.gen
	}
	return nonEmpty(m.sites)
}

// nonEmpty maps an empty set to nil.
func nonEmpty(sites []topology.SiteID) []topology.SiteID {
	if len(sites) == 0 {
		return nil
	}
	return sites
}
