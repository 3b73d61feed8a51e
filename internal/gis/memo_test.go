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

// naiveHolders is the reference for LeastLoadedHolders: the minimum-load
// members of Replicas(f) by Load, found with a fresh two-pass scan.
func naiveHolders(svc *Service, f storage.FileID) []topology.SiteID {
	reps := svc.Replicas(f)
	if len(reps) == 0 {
		return nil
	}
	lo := svc.Load(reps[0])
	for _, r := range reps {
		lo = min(lo, svc.Load(r))
	}
	var out []topology.SiteID
	for _, r := range reps {
		if svc.Load(r) == lo {
			out = append(out, r)
		}
	}
	return out
}

// TestLeastLoadedHoldersMatchesScan runs random scripts of replica
// registrations and removals, load changes and time steps, and after every
// step compares LeastLoadedHolders for every file with a naive scan of
// Replicas and Load. Steps straddle refresh boundaries, so the memo must
// go stale exactly when the snapshot does.
func TestLeastLoadedHoldersMatchesScan(t *testing.T) {
	const sites, files, steps = 12, 8, 400
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
			// File 0 stays undefined; files 1..files-1 start with one holder.
			for f := storage.FileID(1); f < files; f++ {
				if err := cat.DefineFile(f, 1e9); err != nil {
					t.Fatal(err)
				}
				cat.Register(f, topology.SiteID(int(f)%sites))
			}
			src := rng.New(seed)
			step := 0
			var tick func()
			tick = func() {
				for op := src.Intn(4); op >= 0; op-- {
					f := storage.FileID(1 + src.Intn(files-1))
					site := topology.SiteID(src.Intn(sites))
					switch src.Intn(3) {
					case 0:
						cat.Register(f, site)
					case 1:
						cat.Deregister(f, site)
					default:
						loads[site] = src.Intn(3) // few values: many ties
					}
				}
				for f := storage.FileID(-1); f <= files; f++ {
					got, want := svc.LeastLoadedHolders(f), naiveHolders(svc, f)
					if !slices.Equal(got, want) || (want == nil) != (got == nil) {
						t.Fatalf("staleness %v seed %d step %d t=%v file %d: LeastLoadedHolders = %v, scan = %v",
							staleness, seed, step, eng.Now(), f, got, want)
					}
				}
				if step++; step < steps {
					eng.At(eng.Now()+desim.Time(src.Intn(20)), tick)
				}
			}
			eng.At(0, tick)
			eng.Run()
		}
	}
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
