package ds

import (
	"testing"

	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/schedtest"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

func pops(files ...storage.FileID) []scheduler.PopularFile {
	out := make([]scheduler.PopularFile, len(files))
	for i, f := range files {
		out[i] = scheduler.PopularFile{File: f, Count: 10}
	}
	return out
}

func TestNames(t *testing.T) {
	for _, c := range []struct {
		d    scheduler.Dataset
		want string
	}{
		{DoNothing{}, "DataDoNothing"},
		{Random{Src: rng.New(1)}, "DataRandom"},
		{&LeastLoaded{Src: rng.New(1)}, "DataLeastLoaded"},
		{&Cascade{Src: rng.New(1)}, "DataCascade"},
		{BestClient{Src: rng.New(1)}, "DataBestClient"},
	} {
		if c.d.Name() != c.want {
			t.Errorf("Name = %q, want %q", c.d.Name(), c.want)
		}
	}
}

func TestDoNothing(t *testing.T) {
	v := schedtest.NewView(4)
	if got := (DoNothing{}).Decide(v, 0, pops(1, 2)); got != nil {
		t.Fatalf("DoNothing decided %v", got)
	}
}

func TestRandomAvoidsSelfAndHolders(t *testing.T) {
	v := schedtest.NewView(5)
	v.Reps[1] = []topology.SiteID{0, 2}
	r := Random{Src: rng.New(3)}
	for i := 0; i < 200; i++ {
		reps := r.Decide(v, 0, pops(1))
		if len(reps) != 1 {
			t.Fatalf("decided %d replications, want 1", len(reps))
		}
		tgt := reps[0].Target
		if tgt == 0 || tgt == 2 {
			t.Fatalf("replicated to self or an existing holder: %d", tgt)
		}
	}
}

func TestRandomNoCandidates(t *testing.T) {
	v := schedtest.NewView(3)
	v.Reps[1] = []topology.SiteID{0, 1, 2}
	r := Random{Src: rng.New(3)}
	if got := r.Decide(v, 0, pops(1)); len(got) != 0 {
		t.Fatalf("decided %v with no eligible targets", got)
	}
}

func TestLeastLoadedPrefersIdleNeighbor(t *testing.T) {
	v := schedtest.NewHierView(9, 3)
	self := topology.SiteID(0)
	sibs := v.Topo.Siblings(self)
	if len(sibs) != 2 {
		t.Fatalf("expected 2 siblings, got %d", len(sibs))
	}
	v.Loads[sibs[0]] = 7
	v.Loads[sibs[1]] = 1
	l := LeastLoaded{Src: rng.New(1)}
	reps := l.Decide(v, self, pops(1))
	if len(reps) != 1 || reps[0].Target != sibs[1] {
		t.Fatalf("Decide = %v, want target %d", reps, sibs[1])
	}
}

func TestLeastLoadedWidensWhenNeighborsSaturated(t *testing.T) {
	v := schedtest.NewHierView(9, 3)
	self := topology.SiteID(0)
	holders := []topology.SiteID{self}
	holders = append(holders, v.Topo.Siblings(self)...)
	v.Reps[1] = holders
	l := LeastLoaded{Src: rng.New(1)}
	reps := l.Decide(v, self, pops(1))
	if len(reps) != 1 {
		t.Fatalf("expected grid-wide fallback, got %v", reps)
	}
	for _, h := range holders {
		if reps[0].Target == h {
			t.Fatalf("fallback chose a holder: %d", reps[0].Target)
		}
	}
}

func TestCascadeStopsWhenTierSaturated(t *testing.T) {
	v := schedtest.NewHierView(9, 3)
	self := topology.SiteID(0)
	holders := []topology.SiteID{self}
	holders = append(holders, v.Topo.Siblings(self)...)
	v.Reps[1] = holders
	c := Cascade{Src: rng.New(1)}
	if got := c.Decide(v, self, pops(1)); len(got) != 0 {
		t.Fatalf("cascade should stop at saturated tier, got %v", got)
	}
	// Unsaturated: targets a sibling only.
	v.Reps[1] = []topology.SiteID{self}
	reps := c.Decide(v, self, pops(1))
	if len(reps) != 1 {
		t.Fatalf("Decide = %v", reps)
	}
	isSib := false
	for _, s := range v.Topo.Siblings(self) {
		if reps[0].Target == s {
			isSib = true
		}
	}
	if !isSib {
		t.Fatalf("cascade target %d is not a sibling", reps[0].Target)
	}
}

func TestBestClientFollowsRequesters(t *testing.T) {
	v := schedtest.NewView(5)
	b := BestClient{Src: rng.New(1)}
	p := []scheduler.PopularFile{{
		File:  1,
		Count: 10,
		ByRequester: map[topology.SiteID]int{
			2: 7,
			3: 2,
			0: 1, // self: must be ignored
		},
	}}
	reps := b.Decide(v, 0, p)
	if len(reps) != 1 || reps[0].Target != 2 {
		t.Fatalf("Decide = %v, want target 2", reps)
	}
	// If the best client already holds it, next best is chosen... or none.
	v.Reps[1] = []topology.SiteID{2}
	reps = b.Decide(v, 0, p)
	if len(reps) != 1 || reps[0].Target != 3 {
		t.Fatalf("Decide = %v, want target 3", reps)
	}
}

func TestMultiplePopularFiles(t *testing.T) {
	v := schedtest.NewView(6)
	r := Random{Src: rng.New(9)}
	reps := r.Decide(v, 0, pops(1, 2, 3))
	if len(reps) != 3 {
		t.Fatalf("decided %d replications, want 3", len(reps))
	}
	seen := map[storage.FileID]bool{}
	for _, rep := range reps {
		seen[rep.File] = true
	}
	if len(seen) != 3 {
		t.Fatalf("files covered: %v", seen)
	}
}
