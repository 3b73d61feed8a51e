package ds

import (
	"slices"
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
		ByRequester: []scheduler.RequesterCount{
			{Site: 3, Count: 2},
			{Site: 0, Count: 9}, // self: must be ignored
			{Site: 2, Count: 7},
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

// TestBestClientTieGoesToLowestSite pins the choice the site-order scan
// made before requesters became a first-request-order run: the highest
// count wins, equal counts go to the lowest site id that lacks the file.
func TestBestClientTieGoesToLowestSite(t *testing.T) {
	v := schedtest.NewView(8)
	b := BestClient{Src: rng.New(1)}
	p := []scheduler.PopularFile{{
		File:  1,
		Count: 13,
		ByRequester: []scheduler.RequesterCount{
			{Site: 6, Count: 4},
			{Site: 1, Count: 1},
			{Site: 5, Count: 4},
			{Site: 2, Count: 4},
		},
	}}
	for _, tc := range []struct {
		holders []topology.SiteID
		want    topology.SiteID // -1: no push
	}{
		{nil, 2},
		{[]topology.SiteID{2}, 5},
		{[]topology.SiteID{2, 5}, 6},
		{[]topology.SiteID{2, 5, 6}, 1},
		{[]topology.SiteID{1, 2, 5, 6}, -1},
	} {
		v.Reps[1] = tc.holders
		reps := b.Decide(v, 0, p)
		switch {
		case tc.want < 0 && len(reps) != 0:
			t.Errorf("holders %v: Decide = %v, want no push", tc.holders, reps)
		case tc.want >= 0 && (len(reps) != 1 || reps[0].Target != tc.want):
			t.Errorf("holders %v: Decide = %v, want target %d", tc.holders, reps, tc.want)
		}
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

// hasReplicaNonHolders is the reference for NonHolders: every site other
// than self, filtered with one HasReplica query per site.
func hasReplicaNonHolders(g scheduler.GridView, f storage.FileID, self topology.SiteID) []topology.SiteID {
	var out []topology.SiteID
	for s := 0; s < g.NumSites(); s++ {
		if sid := topology.SiteID(s); sid != self && !g.HasReplica(f, sid) {
			out = append(out, sid)
		}
	}
	return out
}

// TestCandidateTargetsMatchesHasReplicaFilter compares CandidateTargets,
// NonHolders and DataRandom's pick with the HasReplica filter they
// replaced, on random sorted holder lists: no holders, every site, every
// sibling of self (which forces the grid-wide widening), and random
// subsets, each with self holding the file and not.
func TestCandidateTargetsMatchesHasReplicaFilter(t *testing.T) {
	const f = storage.FileID(1)
	src := rng.New(17)
	for _, shape := range [][2]int{{9, 3}, {30, 5}, {100, 10}} {
		v := schedtest.NewHierView(shape[0], shape[1])
		n := v.NumSites()
		for trial := 0; trial < 300; trial++ {
			self := topology.SiteID(src.Intn(n))
			hold := make([]bool, n)
			switch trial % 4 {
			case 0: // no holders
			case 1:
				for s := range hold {
					hold[s] = true
				}
			case 2:
				for _, s := range v.Topo.Siblings(self) {
					hold[s] = true
				}
			default:
				p := 1 + src.Intn(9)
				for s := range hold {
					hold[s] = src.Intn(10) < p
				}
			}
			hold[self] = trial%8 < 4
			var reps []topology.SiteID
			for s, h := range hold {
				if h {
					reps = append(reps, topology.SiteID(s))
				}
			}
			v.Reps[f] = reps

			want := WithoutReplica(v, f, v.Topo.Siblings(self), self)
			if len(want) == 0 {
				want = hasReplicaNonHolders(v, f, self)
			}
			if got := CandidateTargets(v, f, self); !slices.Equal(got, want) {
				t.Fatalf("%d sites, self %d, holders %v: CandidateTargets = %v, HasReplica filter %v", n, self, reps, got, want)
			}
			all := hasReplicaNonHolders(v, f, self)
			if got := NonHolders(v, f, self, nil); !slices.Equal(got, all) {
				t.Fatalf("%d sites, self %d, holders %v: NonHolders = %v, HasReplica filter %v", n, self, reps, got, all)
			}
			seed := uint64(trial + 1)
			got := Random{Src: rng.New(seed)}.Decide(v, self, pops(f))
			if len(all) == 0 {
				if len(got) != 0 {
					t.Fatalf("DataRandom pushed %v with every other site holding the file", got)
				}
				continue
			}
			if wantT := rng.Pick(rng.New(seed), all); len(got) != 1 || got[0].Target != wantT {
				t.Fatalf("DataRandom = %v, HasReplica filter picks %d", got, wantT)
			}
		}
	}
}
