// Command gridtune hill-climbs the feedback scheduler's knobs toward
// minimum mean response time on the contended-grid scenario, streaming
// the evaluation trajectory as JSONL. The climb is fully deterministic:
// the same -tuner-seed (and workload seeds) reproduces the identical
// sequence of evaluations and the identical winner.
//
// Usage:
//
//	gridtune                    # tune with the default budget, print the winner
//	gridtune -quick             # reduced workload for a fast shape check
//	gridtune -evals 40          # cap objective evaluations
//	gridtune -jsonl traj.jsonl  # stream the trajectory to a file
//	gridtune -baseline          # also run the static baseline for comparison
package main

import (
	"flag"
	"fmt"
	"os"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/experiments/tune"
	"chicsim/internal/obs"
)

func main() {
	quick := flag.Bool("quick", false, "reduced workload (1500 jobs, 1 seed) for a fast check")
	seeds := flag.Int("seeds", 2, "workload seed replications per evaluation")
	workers := flag.Int("workers", 0, "parallel simulations per evaluation (0 = GOMAXPROCS)")
	evals := flag.Int("evals", 48, "objective evaluation budget")
	tunerSeed := flag.Uint64("tuner-seed", 1, "seed for the tuner's knob visit order")
	jsonlPath := flag.String("jsonl", "", "stream each evaluation to this JSONL file as the climb runs")
	staleness := flag.Float64("staleness", 120, "GIS InfoStaleness of the contended scenario (s)")
	bandwidth := flag.Float64("bw", 10, "link bandwidth (MB/s)")
	baseline := flag.Bool("baseline", false, "also measure JobDataPresent+DataLeastLoaded on the same scenario")
	obs.ParseFlags(flag.CommandLine, os.Args[1:])

	base := core.DefaultConfig()
	base.ES = "JobFeedback"
	base.DS = "DataFeedback"
	base.InfoStaleness = *staleness
	base.BandwidthMBps = *bandwidth
	if *quick {
		base.TotalJobs = 1500
		*seeds = 1
	}
	var seedList []uint64
	for s := 1; s <= *seeds; s++ {
		seedList = append(seedList, uint64(s))
	}

	// The knob set DESIGN.md §14 documents: queue-trend weight, EWMA
	// half-life, divert spread, replication trend threshold, and the DS
	// candidate neighborhood.
	knobs := []tune.Knob{
		{Name: "queue_weight", Min: 0, Max: 1, Step: 0.1},
		{Name: "half_life", Min: 60, Max: 600, Step: 60},
		{Name: "spread_seconds", Min: 0, Max: 300, Step: 30},
		{Name: "trend_threshold", Min: 0, Max: 8, Step: 1},
		{Name: "ds_neighborhood", Min: 0, Max: 2, Step: 1},
	}
	def := base.Feedback
	start := []float64{def.QueueWeight, def.HalfLife, def.SpreadSeconds, def.TrendThreshold, float64(def.DSNeighborhood)}
	apply := func(cfg *core.Config, v []float64) {
		cfg.Feedback.QueueWeight = v[0]
		cfg.Feedback.HalfLife = v[1]
		cfg.Feedback.SpreadSeconds = v[2]
		cfg.Feedback.TrendThreshold = v[3]
		cfg.Feedback.DSNeighborhood = int(v[4])
	}

	var logw *os.File
	if *jsonlPath != "" {
		f, err := os.Create(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridtune:", err)
			os.Exit(1)
		}
		defer f.Close()
		logw = f
	}

	simsPerEval := len(seedList)
	fmt.Fprintf(os.Stderr, "gridtune: tuning %d knobs, ≤%d evaluations × %d sims each (staleness %gs, %g MB/s)\n",
		len(knobs), *evals, simsPerEval, *staleness, *bandwidth)

	progress := obs.NewProgress(os.Stderr, "gridtune", *evals*simsPerEval)
	template := experiments.Campaign{
		Base:     base,
		Cells:    []experiments.Cell{{ES: base.ES, DS: base.DS, BandwidthMBps: base.BandwidthMBps}},
		Seeds:    seedList,
		Workers:  *workers,
		Progress: progress,
		DropRuns: true,
	}

	opt := tune.Options{
		Seed:     *tunerSeed,
		MaxEvals: *evals,
		OnEval: func(ev tune.Eval) {
			marker := " "
			if ev.Best {
				marker = "*"
			}
			fmt.Fprintf(os.Stderr, "gridtune: eval %2d%s score %8.1f  %v\n", ev.Eval, marker, ev.Score, ev.Values)
		},
	}
	if logw != nil {
		opt.Log = logw
	}

	res, err := tune.HillClimb(knobs, start, tune.CampaignObjective(template, apply), opt)
	progress.Finish()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridtune:", err)
		os.Exit(1)
	}

	fmt.Printf("best mean response: %.1f s after %d evaluations (%d passes)\n", res.BestScore, res.Evals, res.Passes)
	for i, k := range knobs {
		fmt.Printf("  %-16s = %g\n", k.Name, res.Best[i])
	}
	if *baseline {
		cfg := base
		cfg.ES = "JobDataPresent"
		cfg.DS = "DataLeastLoaded"
		sum := 0.0
		for _, seed := range seedList {
			c := cfg
			c.Seed = seed
			r, err := core.RunConfig(c)
			if err != nil {
				fmt.Fprintln(os.Stderr, "gridtune:", err)
				os.Exit(1)
			}
			sum += r.AvgResponseSec
		}
		fmt.Printf("static baseline (JobDataPresent+DataLeastLoaded): %.1f s\n", sum/float64(len(seedList)))
	}
}
