package catalog

import (
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func TestDefineAndSize(t *testing.T) {
	c := New()
	if err := c.DefineFile(1, 500e6); err != nil {
		t.Fatal(err)
	}
	if err := c.DefineFile(1, 2); err == nil {
		t.Fatal("duplicate define must error")
	}
	if err := c.DefineFile(2, 0); err == nil {
		t.Fatal("zero size must error")
	}
	if sz, ok := c.Size(1); !ok || sz != 500e6 {
		t.Fatalf("Size = %v %v", sz, ok)
	}
	if _, ok := c.Size(42); ok {
		t.Fatal("unknown file reported a size")
	}
	if c.NumFiles() != 1 {
		t.Fatalf("NumFiles = %d", c.NumFiles())
	}
}

func TestRegisterDeregister(t *testing.T) {
	c := New()
	c.DefineFile(7, 1e9)
	c.Register(7, 3)
	c.Register(7, 1)
	c.Register(7, 3) // idempotent
	reps := c.ReplicaList(7)
	if len(reps) != 2 || reps[0] != 1 || reps[1] != 3 {
		t.Fatalf("ReplicaList = %v", reps)
	}
	if !c.HasReplica(7, 3) || c.HasReplica(7, 9) {
		t.Fatal("HasReplica wrong")
	}
	c.Deregister(7, 3)
	if c.ReplicaCount(7) != 1 {
		t.Fatalf("ReplicaCount = %d", c.ReplicaCount(7))
	}
	c.Deregister(7, 3) // no-op
	c.Deregister(7, 1)
	if c.ReplicaCount(7) != 0 {
		t.Fatal("replicas remain after full deregistration")
	}
	if len(c.ReplicaList(99)) != 0 {
		t.Fatal("unknown file has replicas")
	}
}

func TestFilesSorted(t *testing.T) {
	c := New()
	for _, f := range []storage.FileID{5, 1, 3} {
		c.DefineFile(f, 1)
	}
	fs := c.Files()
	if len(fs) != 3 || fs[0] != 1 || fs[1] != 3 || fs[2] != 5 {
		t.Fatalf("Files = %v", fs)
	}
}

func TestClosest(t *testing.T) {
	topo, err := topology.NewHierarchical(topology.Config{Sites: 12, RegionFanout: 4, Bandwidth: 1}, rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	c := New()
	c.DefineFile(1, 1)
	if _, ok := c.Closest(1, 0, topo); ok {
		t.Fatal("closest of replica-less file should be not-ok")
	}
	// Local replica always wins (0 hops).
	c.Register(1, 0)
	sib := topo.Siblings(0)[0]
	c.Register(1, sib)
	if got, ok := c.Closest(1, 0, topo); !ok || got != 0 {
		t.Fatalf("Closest = %v %v, want local site 0", got, ok)
	}
	c.Deregister(1, 0)
	if got, ok := c.Closest(1, 0, topo); !ok || got != sib {
		t.Fatalf("Closest = %v %v, want sibling %v", got, ok, sib)
	}
}

func TestClosestTieBreakDeterministic(t *testing.T) {
	topo, _ := topology.NewStar(5, 1)
	c := New()
	c.DefineFile(1, 1)
	c.Register(1, 4)
	c.Register(1, 2)
	// All non-local sites are 2 hops; lowest id wins.
	if got, _ := c.Closest(1, 0, topo); got != 2 {
		t.Fatalf("Closest tie-break = %v, want 2", got)
	}
}

// TestClosestMatchesBruteForce checks the early-stopping Closest against a
// full scan for the minimum hop count with ties to the lowest id, on
// random catalogs over every topology constructor.
func TestClosestMatchesBruteForce(t *testing.T) {
	hier, err := topology.NewHierarchical(topology.Config{Sites: 37, RegionFanout: 5, Bandwidth: 1}, rng.New(3))
	if err != nil {
		t.Fatal(err)
	}
	tiered, err := topology.NewTiered([]int{3, 2, 4}, []float64{1})
	if err != nil {
		t.Fatal(err)
	}
	star, err := topology.NewStar(9, 1)
	if err != nil {
		t.Fatal(err)
	}
	for name, topo := range map[string]*topology.Topology{"hierarchical": hier, "tiered": tiered, "star": star} {
		src := rng.New(11)
		n := topo.NumSites()
		for trial := 0; trial < 200; trial++ {
			c := New()
			c.DefineFile(0, 1)
			for k := src.Intn(6); k > 0; k-- {
				c.Register(0, topology.SiteID(src.Intn(n)))
			}
			from := topology.SiteID(src.Intn(n))
			want, wantHops := topology.SiteID(-1), 0
			for _, s := range c.ReplicaList(0) {
				if h := topo.Hops(from, s); want < 0 || h < wantHops {
					want, wantHops = s, h
				}
			}
			got, ok := c.Closest(0, from, topo)
			if ok != (want >= 0) || (ok && got != want) {
				t.Fatalf("%s trial %d: Closest(from %d, replicas %v) = %v %v, want %v",
					name, trial, from, c.ReplicaList(0), got, ok, want)
			}
		}
	}
}

// Property: after any register/deregister sequence, Replicas is sorted,
// duplicate-free, and consistent with HasReplica.
func TestQuickConsistency(t *testing.T) {
	f := func(seed uint64) bool {
		src := rng.New(seed)
		c := New()
		for i := 0; i < 10; i++ {
			c.DefineFile(storage.FileID(i), 1)
		}
		for op := 0; op < 300; op++ {
			file := storage.FileID(src.Intn(10))
			site := topology.SiteID(src.Intn(8))
			if src.Intn(2) == 0 {
				c.Register(file, site)
			} else {
				c.Deregister(file, site)
			}
		}
		for i := 0; i < 10; i++ {
			reps := c.ReplicaList(storage.FileID(i))
			seen := map[topology.SiteID]bool{}
			for j, s := range reps {
				if seen[s] {
					return false
				}
				seen[s] = true
				if j > 0 && reps[j-1] >= s {
					return false
				}
				if !c.HasReplica(storage.FileID(i), s) {
					return false
				}
			}
			if len(reps) != c.ReplicaCount(storage.FileID(i)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}
