package core

import (
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// checkingES wraps a simulation's External Scheduler and, after every
// placement, inspects the view the placement used: each file's replica
// list must be strictly increasing (a placement never writes into a GIS
// snapshot entry), and LeastLoadedHolders must equal a naive scan of
// Replicas and Load.
type checkingES struct {
	inner scheduler.External
	t     *testing.T
	files int
	stats *holderStats
}

type holderStats struct{ placements, tiedSets int }

func (c checkingES) Name() string { return c.inner.Name() }

func (c checkingES) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	target := c.inner.Place(g, j)
	c.stats.placements++
	for f := storage.FileID(0); int(f) < c.files; f++ {
		reps := g.Replicas(f)
		for i := 1; i < len(reps); i++ {
			if reps[i-1] >= reps[i] {
				c.t.Fatalf("placement %d: file %d replica list %v not strictly increasing", c.stats.placements, f, reps)
			}
		}
		got := g.LeastLoadedHolders(f)
		var want []topology.SiteID
		if len(reps) > 0 {
			lo := g.Load(reps[0])
			for _, r := range reps {
				lo = min(lo, g.Load(r))
			}
			for _, r := range reps {
				if g.Load(r) == lo {
					want = append(want, r)
				}
			}
		}
		if len(got) != len(want) || (got == nil) != (want == nil) {
			c.t.Fatalf("placement %d: file %d LeastLoadedHolders = %v, scan = %v", c.stats.placements, f, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				c.t.Fatalf("placement %d: file %d LeastLoadedHolders = %v, scan = %v", c.stats.placements, f, got, want)
			}
		}
		if len(got) > 1 {
			c.stats.tiedSets++
		}
	}
	return target
}

// TestLeastLoadedHoldersInSimulation runs whole simulations with every
// placement checked by checkingES: oracle and snapshot GIS, global and
// regionally scoped views, and the feedback ES, whose ranking also reads
// snapshot entries.
func TestLeastLoadedHoldersInSimulation(t *testing.T) {
	for _, tc := range []struct {
		name      string
		es        string
		staleness float64
		regional  bool
	}{
		{"oracle", "JobDataPresent", 0, false},
		{"snapshot", "JobDataPresent", 30, false},
		{"scoped-oracle", "JobDataPresent", 0, true},
		{"scoped-snapshot", "JobDataPresent", 30, true},
		{"feedback-snapshot", "JobFeedback", 30, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.Seed = 3
			cfg.Sites = 30
			cfg.Users = 60
			cfg.Files = 60
			cfg.TotalJobs = 600
			cfg.RegionFanout = 5
			cfg.ES, cfg.DS = tc.es, "DataLeastLoaded"
			cfg.InfoStaleness = tc.staleness
			cfg.RegionalInfo = tc.regional
			s, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			stats := &holderStats{}
			for u, inner := range s.esFor {
				s.esFor[u] = checkingES{inner: inner, t: t, files: s.cat.FileIDBound(), stats: stats}
			}
			if _, err := s.Run(); err != nil {
				t.Fatal(err)
			}
			if stats.placements != cfg.TotalJobs || stats.tiedSets == 0 {
				t.Fatalf("checked %d placements and %d tied holder sets; want %d and some ties",
					stats.placements, stats.tiedSets, cfg.TotalJobs)
			}
		})
	}
}

// TestDataPresentPlaceZeroAlloc pins the steady-state cost of a
// single-input JobDataPresent placement at zero allocations, in oracle
// and snapshot mode, over files with one and with many least-loaded
// holders.
func TestDataPresentPlaceZeroAlloc(t *testing.T) {
	for _, staleness := range []float64{0, 30} {
		cfg := DefaultConfig()
		cfg.Seed = 5
		cfg.Sites = 30
		cfg.Users = 60
		cfg.Files = 60
		cfg.TotalJobs = 600
		cfg.RegionFanout = 5
		cfg.InfoStaleness = staleness
		s, err := New(cfg)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(); err != nil {
			t.Fatal(err)
		}
		var g scheduler.GridView = s.view
		dp := &es.DataPresent{Src: rng.New(1)}
		var jobs []*job.Job
		tied := false
		for f := 0; f < s.cat.FileIDBound(); f++ {
			j := job.New(job.ID(f), 0, 0, []storage.FileID{storage.FileID(f)}, 300)
			dp.Place(g, j) // warms the memo and scratch buffers
			jobs = append(jobs, j)
			tied = tied || len(g.LeastLoadedHolders(storage.FileID(f))) > 1
		}
		if !tied {
			t.Fatalf("staleness %v: no file has tied holders; the check exercises no draw", staleness)
		}
		allocs := testing.AllocsPerRun(20, func() {
			for _, j := range jobs {
				dp.Place(g, j)
			}
		})
		if allocs != 0 {
			t.Errorf("staleness %v: %v allocations per round of %d placements, want 0", staleness, allocs, len(jobs))
		}
	}
}
