// Command wlgen generates synthetic Data Grid workload traces and inspects
// them. With -hist it prints the dataset-popularity histogram — the
// reproduction of the paper's Figure 2.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"

	"chicsim/internal/core"
	"chicsim/internal/report"
	"chicsim/internal/rng"
	"chicsim/internal/workload"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is wlgen with its arguments and output streams; it returns the exit
// status. Every error is one line on stderr.
func run(args []string, stdout, stderr io.Writer) int {
	cfg := core.DefaultConfig()
	fs := flag.NewFlagSet("wlgen", flag.ContinueOnError)
	fs.SetOutput(io.Discard)
	seed := fs.Uint64("seed", 1, "random seed")
	users := fs.Int("users", cfg.Users, "number of users")
	sites := fs.Int("sites", cfg.Sites, "number of sites")
	files := fs.Int("files", cfg.Files, "number of datasets")
	jobs := fs.Int("jobs", cfg.TotalJobs, "total jobs")
	geomP := fs.Float64("geom-p", cfg.GeomP, "geometric popularity parameter")
	inputs := fs.Int("inputs", 1, "input files per job")
	out := fs.String("o", "", "write trace to this file (default: stdout unless -hist)")
	hist := fs.Bool("hist", false, "print the Figure 2 popularity histogram instead of a trace")
	ranks := fs.Int("ranks", 60, "histogram: number of dataset ranks to show")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			fs.SetOutput(stderr)
			fs.PrintDefaults()
			return 0
		}
		fmt.Fprintln(stderr, "wlgen:", err)
		return 2
	}
	if *ranks < 0 {
		fmt.Fprintf(stderr, "wlgen: -ranks = %d, want >= 0\n", *ranks)
		return 2
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
		fmt.Fprintln(stderr, "wlgen:", err)
		return 1
	}

	if *hist {
		fmt.Fprintf(stdout, "Figure 2: dataset popularity (geometric p=%g, %d jobs, first %d of %d datasets)\n",
			*geomP, *jobs, *ranks, *files)
		report.Histogram(stdout, w.PopularityHistogram(), *ranks, 60)
		return 0
	}

	dst := stdout
	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fmt.Fprintln(stderr, "wlgen:", err)
			return 1
		}
		defer f.Close()
		dst = f
	}
	if err := w.WriteTrace(dst); err != nil {
		fmt.Fprintln(stderr, "wlgen:", err)
		return 1
	}
	if *out != "" {
		fmt.Fprintf(stderr, "wlgen: wrote %d jobs to %s\n", w.TotalJobs(), *out)
	}
	return 0
}
