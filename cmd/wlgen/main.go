// Command wlgen generates synthetic Data Grid workload traces and inspects
// them. With -hist it prints the dataset-popularity histogram — the
// reproduction of the paper's Figure 2.
package main

import (
	"flag"
	"fmt"
	"os"

	"chicsim/internal/core"
	"chicsim/internal/obs"
	"chicsim/internal/report"
	"chicsim/internal/rng"
	"chicsim/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	seed := flag.Uint64("seed", 1, "random seed")
	users := flag.Int("users", cfg.Users, "number of users")
	sites := flag.Int("sites", cfg.Sites, "number of sites")
	files := flag.Int("files", cfg.Files, "number of datasets")
	jobs := flag.Int("jobs", cfg.TotalJobs, "total jobs")
	geomP := flag.Float64("geom-p", cfg.GeomP, "geometric popularity parameter")
	inputs := flag.Int("inputs", 1, "input files per job")
	out := flag.String("o", "", "write trace to this file (default: stdout unless -hist)")
	hist := flag.Bool("hist", false, "print the Figure 2 popularity histogram instead of a trace")
	ranks := flag.Int("ranks", 60, "histogram: number of dataset ranks to show")
	obs.ParseFlags(flag.CommandLine, os.Args[1:])
	if *ranks < 0 {
		fmt.Fprintf(os.Stderr, "wlgen: -ranks = %d, want >= 0\n", *ranks)
		os.Exit(2)
	}

	spec := workload.Spec{
		Users:        *users,
		Sites:        *sites,
		Files:        *files,
		TotalJobs:    *jobs,
		MinFileBytes: cfg.MinFileGB * 1e9,
		MaxFileBytes: cfg.MaxFileGB * 1e9,
		ComputePerGB: cfg.ComputePerGB,
		Popularity:   workload.Geometric,
		GeomP:        *geomP,
		InputsPerJob: *inputs,
	}
	w, err := workload.Generate(spec, rng.New(*seed))
	if err != nil {
		fatal(err)
	}

	if *hist {
		fmt.Printf("Figure 2: dataset popularity (geometric p=%g, %d jobs, first %d of %d datasets)\n",
			*geomP, *jobs, *ranks, *files)
		report.Histogram(os.Stdout, w.PopularityHistogram(), *ranks, 60)
		return
	}

	if *out == "" {
		if err := w.WriteTrace(os.Stdout); err != nil {
			fatal(err)
		}
		return
	}
	f, err := os.Create(*out)
	if err != nil {
		fatal(err)
	}
	err = w.WriteTrace(f)
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		fatal(err)
	}
	fmt.Fprintf(os.Stderr, "wlgen: wrote %d jobs to %s\n", w.TotalJobs(), *out)
}

// fatal reports a failure in one line and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "wlgen:", err)
	os.Exit(1)
}
