package gis

import (
	"slices"
	"testing"

	"chicsim/internal/catalog"
	"chicsim/internal/desim"
	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// refGIS is the reference for the service: a refresh copies every site's
// load and every defined file's holder list, whatever changed, and each
// query is a fresh scan of that copy. With staleness 0 it copies on every
// query.
type refGIS struct {
	eng   *desim.Engine
	cat   *catalog.Catalog
	live  []int // the loads the service's LoadFunc reads
	stale float64
	at    desim.Time // snapshot time; -1 before the first
	loads []int
	reps  [][]topology.SiteID
}

func (r *refGIS) refresh() {
	if now := r.eng.Now(); r.stale > 0 {
		if r.at >= 0 && now-r.at < r.stale {
			return
		}
		r.at = now
	}
	r.loads = slices.Clone(r.live)
	r.reps = make([][]topology.SiteID, r.cat.FileIDBound())
	for f := range r.reps {
		if _, ok := r.cat.Size(storage.FileID(f)); ok {
			r.reps[f] = slices.Clone(r.cat.ReplicaList(storage.FileID(f)))
		}
	}
}

func (r *refGIS) replicas(f storage.FileID) []topology.SiteID {
	r.refresh()
	if f < 0 || int(f) >= len(r.reps) {
		return nil
	}
	return r.reps[f]
}

// leastLoaded finds the minimum load among the holders, then keeps the
// holders that have it.
func (r *refGIS) leastLoaded(f storage.FileID) []topology.SiteID {
	reps := r.replicas(f)
	if len(reps) == 0 {
		return nil
	}
	lo := r.loads[reps[0]]
	for _, h := range reps {
		lo = min(lo, r.loads[h])
	}
	var out []topology.SiteID
	for _, h := range reps {
		if r.loads[h] == lo {
			out = append(out, h)
		}
	}
	return out
}

// TestLeastLoadedHoldersMatchesScan runs random scripts against the
// service and a full-copy reference, and after every step compares
// Replicas, HasReplica and LeastLoadedHolders for every file and site.
// Steps register and remove replicas, register and remove the same site
// within one step (and so within one snapshot window), define new files
// mid-run, change loads, and advance the clock; some steps change nothing
// and advance past the staleness, so several refreshes in a row see no
// catalog change. Steps straddle refresh boundaries, so the memo must go
// stale exactly when the snapshot does.
func TestLeastLoadedHoldersMatchesScan(t *testing.T) {
	const sites, files, steps = 12, 12, 400
	for _, staleness := range []float64{0, 30} {
		for seed := uint64(1); seed <= 5; seed++ {
			eng := desim.New()
			cat := catalog.New()
			topo, err := topology.NewStar(sites, 1e6)
			if err != nil {
				t.Fatal(err)
			}
			loads := make([]int, sites)
			svc := New(eng, cat, topo, func(s topology.SiteID) int { return loads[s] }, staleness)
			ref := &refGIS{eng: eng, cat: cat, live: loads, stale: staleness, at: -1}
			// File 0 stays undefined; files 1..defined-1 start with one
			// holder, and the rest are defined one by one as the script runs.
			defined := storage.FileID(files / 2)
			for f := storage.FileID(1); f < defined; f++ {
				if err := cat.DefineFile(f, 1e9); err != nil {
					t.Fatal(err)
				}
				cat.Register(f, topology.SiteID(int(f)%sites))
			}
			src := rng.New(seed)
			step := 0
			var tick func()
			tick = func() {
				quiet := src.Intn(5) == 0
				for op := src.Intn(4); op >= 0 && !quiet; op-- {
					f := storage.FileID(1 + src.Intn(int(defined)-1))
					site := topology.SiteID(src.Intn(sites))
					switch src.Intn(6) {
					case 0:
						cat.Register(f, site)
					case 1:
						cat.Deregister(f, site)
					case 2:
						cat.Register(f, site)
						cat.Deregister(f, site)
					case 3:
						cat.Deregister(f, site)
						cat.Register(f, site)
					case 4:
						if defined < files {
							if err := cat.DefineFile(defined, 1e9); err != nil {
								t.Fatal(err)
							}
							defined++
						}
					default:
						loads[site] = src.Intn(3) // few values: many ties
					}
				}
				for f := storage.FileID(-1); f <= files; f++ {
					got, want := svc.Replicas(f), ref.replicas(f)
					if !slices.Equal(got, want) {
						t.Fatalf("staleness %v seed %d step %d t=%v file %d: Replicas = %v, reference %v",
							staleness, seed, step, eng.Now(), f, got, want)
					}
					for s := topology.SiteID(0); s < sites; s++ {
						if got, want := svc.HasReplica(f, s), slices.Contains(want, s); got != want {
							t.Fatalf("staleness %v seed %d step %d t=%v: HasReplica(%d, %d) = %v, reference %v",
								staleness, seed, step, eng.Now(), f, s, got, want)
						}
					}
					got, want = svc.LeastLoadedHolders(f), ref.leastLoaded(f)
					if !slices.Equal(got, want) || (want == nil) != (got == nil) {
						t.Fatalf("staleness %v seed %d step %d t=%v file %d: LeastLoadedHolders = %v, reference %v",
							staleness, seed, step, eng.Now(), f, got, want)
					}
				}
				if step++; step < steps {
					dt := desim.Time(src.Intn(20))
					if quiet {
						dt = desim.Time(31 + src.Intn(30))
					}
					eng.At(eng.Now()+dt, tick)
				}
			}
			eng.At(0, tick)
			eng.Run()
		}
	}
}

// TestRefreshCopiesOnlyChangedLists overwrites the snapshot entries behind
// the service's back, then forces refreshes: one after no catalog change
// must leave every entry as written, and one after a single registration
// must rewrite that file's entry and no other.
func TestRefreshCopiesOnlyChangedLists(t *testing.T) {
	eng, cat, _, svc := fixture(t, 30)
	for f := storage.FileID(0); f < 3; f++ {
		cat.DefineFile(f, 1e9)
		cat.Register(f, topology.SiteID(f))
	}
	poisoned := []topology.SiteID{3}
	eng.At(0, func() {
		svc.Replicas(0) // the first snapshot copies every list
		for f := range svc.snapRep {
			svc.snapRep[f] = slices.Clone(poisoned)
		}
	})
	eng.At(31, func() {
		for f := storage.FileID(0); f < 3; f++ {
			if got := svc.Replicas(f); !slices.Equal(got, poisoned) {
				t.Errorf("refresh after no catalog change rewrote file %d: %v", f, got)
			}
		}
		cat.Register(1, 2)
	})
	eng.At(62, func() {
		for f, want := range [][]topology.SiteID{poisoned, {1, 2}, poisoned} {
			if got := svc.Replicas(storage.FileID(f)); !slices.Equal(got, want) {
				t.Errorf("after one registration: file %d = %v, want %v", f, got, want)
			}
		}
	})
	eng.Run()
}

// TestSnapshotEntriesStaySorted checks that a snapshot entry is a strictly
// increasing copy of the catalog's list taken at refresh time, so
// HasReplica's binary search holds, and that a holder registered after the
// refresh stays invisible until the next one.
func TestSnapshotEntriesStaySorted(t *testing.T) {
	eng, cat, loads, svc := fixture(t, 60)
	cat.DefineFile(1, 5e8)
	for _, s := range []topology.SiteID{3, 0, 2} {
		cat.Register(1, s)
	}
	loads[0], loads[1], loads[2], loads[3] = 1, 5, 1, 1
	eng.At(0, func() {
		reps := svc.Replicas(1)
		if !slices.Equal(reps, []topology.SiteID{0, 2, 3}) {
			t.Fatalf("snapshot = %v, want [0 2 3]", reps)
		}
		if got := svc.LeastLoadedHolders(1); !slices.Equal(got, reps) {
			t.Fatalf("all tied: LeastLoadedHolders = %v, want %v", got, reps)
		}
		cat.Register(1, 1)
		loads[0] = 0
		for s := topology.SiteID(0); s < 4; s++ {
			if got, want := svc.HasReplica(1, s), s != 1; got != want {
				t.Errorf("HasReplica(1, %d) = %v, want %v", s, got, want)
			}
		}
		if got := svc.LeastLoadedHolders(1); !slices.Equal(got, []topology.SiteID{0, 2, 3}) {
			t.Errorf("memo changed within a snapshot: %v", got)
		}
	})
	eng.At(61, func() {
		if got := svc.LeastLoadedHolders(1); !slices.Equal(got, []topology.SiteID{0}) {
			t.Errorf("after refresh: LeastLoadedHolders = %v, want [0]", got)
		}
		if reps := svc.Replicas(1); !slices.Equal(reps, []topology.SiteID{0, 1, 2, 3}) {
			t.Errorf("after refresh: snapshot = %v", reps)
		}
	})
	eng.Run()
}
