package main

import (
	"chicsim/internal/core"
	"chicsim/internal/experiments"
)

// workload is one fixed scenario. Exactly one of single and campaign is
// set. A single-simulation workload runs sims simulations per repetition,
// one per seed: on scale-random-100k one seed's fastest wall time can sit
// 25% above another's, and a run that averages two seeds varies less from
// seed to seed. The configs live here, not in a library package, so that
// a change to the simulator cannot move the benchmark's inputs. shrink
// divides the job count (1 = full size); the tests use it to run every
// workload quickly.
type workload struct {
	name     string
	why      string
	sims     int
	single   func(seed uint64, shrink int) core.Config
	campaign func(seed uint64, shrink int) experiments.Campaign
}

// paperSeeds is how many seed replications each paper-fig3 cell runs.
const paperSeeds = 30

// campaignWorkers is paper-fig3's pool size: the two cores of the machine
// the benchmark was defined on, so the pool never oversubscribes it.
const campaignWorkers = 2

var workloads = []workload{
	{
		name:     "paper-fig3",
		why:      "the paper's 12 ES x DS cells x 30 seeds on the Table 1 grid: many short sims, so setup, results and the campaign pool carry weight",
		campaign: paperFig3,
	},
	{
		name:   "scale-present-1M",
		why:    "1000 sites, 1M jobs, JobDataPresent: ES/GIS placement dominates and netsim is idle, the control for netsim changes",
		sims:   1,
		single: func(seed uint64, shrink int) core.Config { return scaleGrid(seed, 1_000_000/shrink, "JobDataPresent") },
	},
	{
		name:   "scale-random-100k",
		why:    "1000 sites, 100k jobs, JobRandom, two seeds a rep: netsim reflow and desim reschedules dominate and ES is idle, the control for ES/GIS changes",
		sims:   2,
		single: func(seed uint64, shrink int) core.Config { return scaleGrid(seed, 100_000/shrink, "JobRandom") },
	},
}

// runSeeds returns the n simulation seeds of the run with the given seed:
// (seed-1)*n+1 to seed*n. Runs with different seeds share no simulation,
// and seed 1 gives 1 to n, for paper-fig3 the seeds of the paper's runs.
func runSeeds(seed uint64, n int) []uint64 {
	seeds := make([]uint64, n)
	for i := range seeds {
		seeds[i] = (seed-1)*uint64(n) + uint64(i) + 1
	}
	return seeds
}

// configs returns the config of every simulation one repetition of w runs.
func (w workload) configs(seed uint64, shrink int) []core.Config {
	var cfgs []core.Config
	if w.single != nil {
		for _, s := range runSeeds(seed, w.sims) {
			cfgs = append(cfgs, w.single(s, shrink))
		}
		return cfgs
	}
	c := w.campaign(seed, shrink)
	for _, cell := range c.Cells {
		for _, s := range c.Seeds {
			cfgs = append(cfgs, cellConfig(c, cell, s))
		}
	}
	return cfgs
}

// paperFig3 is the paper's own evaluation (Table 1 grid, scenario 1, all
// 4 ES x 3 DS pairs), replicated over 30 seeds.
func paperFig3(seed uint64, shrink int) experiments.Campaign {
	base := core.DefaultConfig()
	base.Sites, base.Users, base.Files = 30, 120, 200
	base.RegionFanout = 6
	base.LS = "FIFO"
	base.InfoStaleness = 30
	// Shrinking drops seeds first and then jobs per sim, so a shrunk run
	// still covers every ES x DS pair.
	seeds := max(1, paperSeeds/shrink)
	base.TotalJobs = 6000 * paperSeeds / (shrink * seeds)
	return experiments.Campaign{
		Base:     base,
		Cells:    experiments.PaperCells(10),
		Seeds:    runSeeds(seed, seeds),
		Workers:  campaignWorkers,
		DropRuns: true,
	}
}

// scaleGrid is the 1000-site grid shared by the single-simulation
// workloads, with bounded results so memory stays flat at a million jobs.
func scaleGrid(seed uint64, jobs int, es string) core.Config {
	cfg := core.DefaultConfig()
	cfg.Seed = seed
	cfg.Sites = 1000
	cfg.RegionFanout = 25
	cfg.Users = 4000
	cfg.Files = 2000
	cfg.TotalJobs = jobs
	cfg.BandwidthMBps = 10
	cfg.ES, cfg.DS, cfg.LS = es, "DataLeastLoaded", "FIFO"
	cfg.InfoStaleness = 30
	cfg.ResultMode = core.ResultModeBounded
	return cfg
}

func workloadByName(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}
