// Command gridsweep regenerates the paper's evaluation: all 72 experiments
// (12 ES×DS pairs × 2 bandwidths × 3 seeds) and the tables behind Figures
// 3a, 3b, 4, and 5.
//
// Usage:
//
//	gridsweep                  # full campaign, all figures
//	gridsweep -fig 3a          # just one figure's table
//	gridsweep -fig seeds -seeds 30 # seed-variance study, CI convergence per pair
//	gridsweep -fig sensitivity # sweep the parameters Table 1 leaves unspecified
//	gridsweep -fig ablations -seeds 10 # seed-paired deltas of the design-choice studies
//	gridsweep -csv             # machine-readable rows for plotting
//	gridsweep -quick           # reduced workload for a fast shape check
//	gridsweep -list            # print the Table 1 configuration and exit
//	gridsweep -jsonl out.jsonl # stream each finished cell to a JSONL file
//	gridsweep -from-jsonl f    # regenerate reports from a streamed file
//	gridsweep -listen :8080    # live /metrics, /status, /events while running
//	gridsweep -dispatch URL    # shard the campaign across a fabric dispatcher
package main

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/fabric"
	"chicsim/internal/obs"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/report"
	"chicsim/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 3a, 3b, 4, 5, seeds, sensitivity, ablations, all")
	csv := flag.Bool("csv", false, "emit CSV rows instead of tables")
	md := flag.Bool("md", false, "emit markdown tables (EXPERIMENTS.md format)")
	quick := flag.Bool("quick", false, "reduced workload (1500 jobs, 1 seed) for a fast check")
	seeds := flag.Int("seeds", 3, "seed replications per cell")
	workers := flag.Int("workers", 0, "parallel simulations (0 = GOMAXPROCS)")
	list := flag.Bool("list", false, "print the Table 1 configuration and exit")
	progressJSONL := flag.String("progress-jsonl", "", "stream per-simulation progress records to this JSONL file")
	jsonlPath := flag.String("jsonl", "", "stream each completed cell's result to this JSONL file as the campaign runs")
	fromJSONL := flag.String("from-jsonl", "", "skip the campaign and regenerate reports from a previously streamed -jsonl file")
	dispatch := flag.String("dispatch", "", "submit the campaign to a fabric dispatcher (griddispatch URL) and wait for the merged result instead of simulating locally")
	fleetTrace := flag.String("fleet-trace", "", "with -dispatch: write the campaign timeline as a Chrome/Perfetto trace to this file after the merge (.gz gzips)")
	resultMode := flag.String("result-mode", "", "result collection for every simulation: full (default) or bounded (constant-memory sketches)")
	obsFlags := obs.BindFlags(flag.CommandLine)
	obs.ParseFlags(flag.CommandLine, os.Args[1:])
	if err := obsFlags.Check(); err != nil {
		usageError("%v", err)
	}
	switch {
	case obsFlags.StreamPath != "":
		usageError("-obs-stream applies to a single simulation (use chicsim -obs-stream)")
	case obsFlags.TracePath != "":
		usageError("-trace-out applies to a single simulation (use chicsim -trace-out)")
	case *fleetTrace != "" && *dispatch == "":
		usageError("-fleet-trace needs -dispatch")
	case *dispatch != "" && (obsFlags.ListenAddr != "" || obsFlags.MetricsPath != "" || obsFlags.WatchdogMode != "off"):
		usageError("-listen, -metrics-out and -watchdog run on the dispatcher and workers, not with -dispatch")
	}

	base := core.DefaultConfig()
	base.ResultMode = *resultMode
	if *list {
		printTable1(base)
		return
	}

	var cells []experiments.Cell
	switch *fig {
	case "3a", "3b", "4", "seeds":
		cells = experiments.PaperCells(10)
	case "5":
		cells = experiments.Figure5Cells()
	case "ablations":
		cells = experiments.AblationCells()
	case "sensitivity":
		cells = experiments.SensitivityCells()
	case "all":
		cells = experiments.FullPaperCampaign(base).Cells
	default:
		usageError("unknown figure %q", *fig)
	}

	if *fromJSONL != "" {
		results, err := experiments.ReadStreamFile(*fromJSONL)
		if err != nil {
			// A campaign killed mid-write leaves a truncated final line;
			// every intact record before it is still good.
			if len(results) == 0 {
				fatal(err)
			}
			fmt.Fprintf(os.Stderr, "gridsweep: warning: %v; recovering the %d intact cells before it\n",
				err, len(results))
		}
		// At-least-once delivery (fabric workers, resumed campaigns) can
		// leave duplicate or out-of-order records; last write wins per cell.
		var superseded int
		results, superseded = experiments.Canonicalize(results)
		if superseded > 0 {
			fmt.Fprintf(os.Stderr, "gridsweep: warning: %d duplicate cell records in %s superseded (last write wins)\n",
				superseded, *fromJSONL)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: rebuilding reports from %d streamed cells in %s\n",
			len(results), *fromJSONL)
		render(results, *fig, *csv, *md)
		return
	}

	if *quick {
		base.TotalJobs = 1500
		*seeds = 1
	}

	var seedList []uint64
	for s := 1; s <= *seeds; s++ {
		seedList = append(seedList, uint64(s))
	}

	if (*fig == "seeds" || *fig == "ablations") && len(seedList) < 2 {
		usageError("-fig %s needs -seeds 2 or more (and no -quick)", *fig)
	}

	if *dispatch != "" {
		runDispatched(*dispatch, base, cells, seedList, obsFlags, *jsonlPath, *fleetTrace, *fig, *csv, *md)
		return
	}

	totalSims := len(cells) * len(seedList)
	fmt.Fprintf(os.Stderr, "gridsweep: running %d cells × %d seeds (%d simulations)...\n",
		len(cells), len(seedList), totalSims)

	progress := obs.NewProgress(os.Stderr, "gridsweep", totalSims)
	if *progressJSONL != "" {
		f, err := os.Create(*progressJSONL)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		progress.JSONLTo(f)
	}

	type cellState struct {
		RunsDone int    `json:"runs_done"`
		RunsOK   int    `json:"runs_ok"`
		Err      string `json:"err,omitempty"`
	}
	var stateMu sync.Mutex
	cellStates := make(map[string]*cellState, len(cells))
	for _, c := range cells {
		cellStates[c.String()] = &cellState{}
	}
	// The manifest keeps base as the user configured it.
	sess, err := obsFlags.Start("gridsweep", base, seedList, func() any {
		stateMu.Lock()
		cellsCopy := make(map[string]cellState, len(cellStates))
		for k, v := range cellStates {
			cellsCopy[k] = *v
		}
		stateMu.Unlock()
		return struct {
			Progress obs.Snapshot         `json:"progress"`
			Seeds    []uint64             `json:"seeds"`
			RunsPer  int                  `json:"runs_per_cell"`
			Cells    map[string]cellState `json:"cells"`
		}{progress.Snapshot(), seedList, len(seedList), cellsCopy}
	})
	if err != nil {
		fatal(err)
	}
	if sess.Manifest != nil {
		sess.Manifest.SetExtra("cells", len(cells))
		sess.Manifest.SetExtra("workers", *workers)
	}

	var stream *experiments.StreamWriter
	if *jsonlPath != "" {
		if stream, err = experiments.CreateStream(*jsonlPath); err != nil {
			fatal(err)
		}
	}
	// Every cell streamed before an interrupt stays usable: `gridsweep
	// -from-jsonl` rebuilds the reports from them.
	sess.ExitOnInterrupt(func() {
		if stream != nil {
			stream.Close()
		}
	})

	campaign := experiments.Campaign{
		Base:     base,
		Cells:    cells,
		Seeds:    seedList,
		Workers:  *workers,
		Progress: progress,
		OnRunDone: func(cell experiments.Cell, seed uint64, rerr error) {
			stateMu.Lock()
			cs := cellStates[cell.String()]
			cs.RunsDone++
			if rerr != nil {
				cs.Err = rerr.Error()
			} else {
				cs.RunsOK++
			}
			stateMu.Unlock()
			sess.Publish("run_done", map[string]any{"cell": cell.String(), "seed": seed})
		},
		OnCellDone: func(cr *experiments.CellResult) {
			if stream != nil {
				if werr := stream.Write(experiments.RecordOf(cr)); werr != nil {
					fmt.Fprintln(os.Stderr, "gridsweep:", werr)
				}
			}
			sess.Publish("cell_done", map[string]any{
				"cell": cr.Cell.String(), "avg_response_s": cr.AvgResponseSec,
			})
		},
	}
	if sess.Watchdog != watchdog.Off {
		campaign.OnViolation = func(cell experiments.Cell, seed uint64, v watchdog.Violation) {
			sess.Violation(fmt.Sprintf("%v seed=%d: ", cell, seed), v, map[string]any{
				"cell": cell.String(), "seed": seed, "violation": v.String(),
			})
		}
	}
	campaign.Base.Metrics, campaign.Base.Watchdog = sess.Registry, sess.Watchdog
	if obsFlags.Observing() {
		campaign.Base.ObsInterval = obsFlags.SeriesInterval
	}
	results := experiments.Run(campaign)
	progress.Finish()
	if stream != nil {
		if cerr := stream.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", cerr)
		} else {
			fmt.Fprintf(os.Stderr, "gridsweep: streamed %d cells to %s\n", len(results), *jsonlPath)
		}
	}
	for i := range results {
		if results[i].Err != nil {
			fmt.Fprintf(os.Stderr, "gridsweep: %v failed: %v\n", results[i].Cell, results[i].Err)
		}
	}
	if err := sess.Finish(false); err != nil {
		fatal(err)
	}

	render(results, *fig, *csv, *md)
}

// usageError reports a bad invocation in one line and exits with status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "gridsweep: "+format+"\n", args...)
	os.Exit(2)
}

// fatal reports a failure in one line and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "gridsweep:", err)
	os.Exit(1)
}

// runDispatched shards the campaign across a fabric dispatcher instead of
// simulating locally: submit the spec, wait for the merged stream, then
// render reports from it. Because workers execute cells through the same
// experiments.Run path and the dispatcher merges records into canonical
// campaign order, the stream — and every report rendered from it — is
// byte-identical to a single-process run.
func runDispatched(addr string, base core.Config, cells []experiments.Cell, seeds []uint64,
	obsFlags *obs.Flags, jsonlPath, fleetTrace, fig string, csv, md bool) {
	spec := fabric.CampaignSpec{Base: base, Cells: cells, Seeds: seeds}
	client := &fabric.Client{BaseURL: addr}
	sub, err := client.Submit(spec)
	if err != nil {
		fatal(err)
	}
	if sub.Resumed {
		fmt.Fprintf(os.Stderr, "gridsweep: attached to campaign %s already on dispatcher %s\n", sub.CampaignID, addr)
	} else {
		fmt.Fprintf(os.Stderr, "gridsweep: submitted campaign %s (%d cells × %d seeds) to %s\n",
			sub.CampaignID, len(cells), len(seeds), addr)
	}

	sess, err := obsFlags.Start("gridsweep", base, seeds, nil)
	if err != nil {
		fatal(err)
	}
	if sess.Manifest != nil {
		sess.Manifest.SetExtra("cells", len(cells))
		sess.Manifest.SetExtra("dispatcher", addr)
		sess.Manifest.SetExtra("campaign_id", sub.CampaignID)
	}

	// Ctrl-C stops the wait, not the campaign: the fabric keeps running
	// and rerunning gridsweep with the same flags re-attaches.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	lastLine := ""
	merged, err := client.WaitMerged(ctx, sub.CampaignID, time.Second, func(doc fabric.StateDoc) {
		line := progressLine(client, doc)
		if line != lastLine {
			fmt.Fprintln(os.Stderr, line)
			lastLine = line
		}
	})
	if err != nil {
		if ctx.Err() != nil {
			fmt.Fprintln(os.Stderr, "gridsweep: wait interrupted; the campaign keeps running on the dispatcher (rerun to re-attach)")
			os.Exit(130)
		}
		fatal(err)
	}
	if jsonlPath != "" {
		if werr := os.WriteFile(jsonlPath, merged, 0o644); werr != nil {
			fatal(werr)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: wrote merged stream (%d cells) to %s\n", len(cells), jsonlPath)
	}
	if fleetTrace != "" {
		if err := writeFleetTrace(client, fleetTrace); err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: wrote fleet trace to %s (open in Perfetto or chrome://tracing)\n", fleetTrace)
	}
	results, err := experiments.ReadStream(bytes.NewReader(merged))
	if err != nil {
		fatal(err)
	}
	for i := range results {
		if results[i].Err != nil {
			fmt.Fprintf(os.Stderr, "gridsweep: %v failed: %v\n", results[i].Cell, results[i].Err)
		}
	}
	if err := sess.Finish(false); err != nil {
		fatal(err)
	}
	render(results, fig, csv, md)
}

// progressLine renders one -dispatch progress line. The fleet endpoint
// enriches it with liveness, requeues, and an ETA; an older dispatcher
// without /api/fleet degrades to the bare shard counts.
func progressLine(client *fabric.Client, doc fabric.StateDoc) string {
	done := doc.Counts["completed"] + doc.Counts["failed"]
	line := fmt.Sprintf("gridsweep: fabric: %d/%d shards done, %d executing",
		done, len(doc.Shards), doc.Counts["executing"])
	fleet, err := client.Fleet()
	if err != nil {
		return line + fmt.Sprintf(", %d workers", len(doc.Workers))
	}
	live := 0
	for _, w := range fleet.Workers {
		if w.Live {
			live++
		}
	}
	line += fmt.Sprintf(", %d/%d workers live", live, len(fleet.Workers))
	if fleet.Requeues > 0 {
		line += fmt.Sprintf(", %d requeues", fleet.Requeues)
	}
	if fleet.ETASeconds > 0 {
		line += fmt.Sprintf(", ETA %s", (time.Duration(fleet.ETASeconds * float64(time.Second))).Round(time.Second))
	}
	return line
}

// writeFleetTrace fetches the campaign timeline and writes it as a
// Chrome trace-event file (gzipped when the path ends in .gz).
func writeFleetTrace(client *fabric.Client, path string) error {
	doc, err := client.Timeline()
	if err != nil {
		return err
	}
	spans, markers := fabric.FleetTraceData(doc)
	w, err := trace.CreateWriter(path)
	if err != nil {
		return err
	}
	if err := trace.WriteFleetChrome(w, spans, markers); err != nil {
		w.Close()
		return err
	}
	return w.Close()
}

// render writes the requested report for results, whether they came from a
// live campaign or a -from-jsonl stream.
func render(results []experiments.CellResult, fig string, csv, md bool) {
	// The three studies have one output format each.
	switch fig {
	case "seeds":
		report.SeedVariance(os.Stdout, results, experiments.PaperCells(10))
		return
	case "sensitivity":
		report.SensitivityCSV(os.Stdout, results, experiments.SensitivityCells())
		return
	case "ablations":
		report.Ablations(os.Stdout, results, experiments.Ablations())
		return
	}
	if csv {
		report.CSV(os.Stdout, results)
		return
	}
	esNames := core.PaperExternalNames()
	dsNames := core.PaperDatasetNames()
	if md {
		for _, f := range []struct {
			title string
			m     report.Metric
		}{
			{"Figure 3a", report.ResponseTime},
			{"Figure 3b", report.DataTransferred},
			{"Figure 4", report.IdleTime},
		} {
			fmt.Printf("### %s\n\n", f.title)
			report.MarkdownGrid(os.Stdout, results, f.m, esNames, dsNames, 10)
			fmt.Println()
		}
		fmt.Printf("### Response-time decomposition\n\n")
		report.DecompositionMarkdown(os.Stdout, results, esNames, "DataLeastLoaded", 10)
		fmt.Println()
		return
	}
	switch fig {
	case "3a":
		report.Grid(os.Stdout, results, report.ResponseTime, esNames, dsNames, 10)
	case "3b":
		report.Grid(os.Stdout, results, report.DataTransferred, esNames, dsNames, 10)
	case "4":
		report.Grid(os.Stdout, results, report.IdleTime, esNames, dsNames, 10)
	case "5":
		report.Bandwidths(os.Stdout, results, esNames, "DataLeastLoaded", []float64{10, 100})
	case "all":
		fmt.Println("=== Figure 3a ===")
		report.Grid(os.Stdout, results, report.ResponseTime, esNames, dsNames, 10)
		fmt.Println("\n=== Figure 3b ===")
		report.Grid(os.Stdout, results, report.DataTransferred, esNames, dsNames, 10)
		fmt.Println("\n=== Figure 4 ===")
		report.Grid(os.Stdout, results, report.IdleTime, esNames, dsNames, 10)
		fmt.Println("\n=== Figure 5 ===")
		report.Bandwidths(os.Stdout, results, esNames, "DataLeastLoaded", []float64{10, 100})
		if maxRuns(results) >= 2 {
			fmt.Println("\n=== §5.3 significance check ===")
			report.Significance(os.Stdout, results,
				experiments.Cell{ES: "JobDataPresent", DS: "DataRandom", BandwidthMBps: 10},
				experiments.Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10})
		}
	}
}

// maxRuns returns the largest per-cell run count (seed replications).
func maxRuns(results []experiments.CellResult) int {
	m := 0
	for i := range results {
		if n := len(results[i].Runs); n > m {
			m = n
		}
	}
	return m
}

func printTable1(cfg core.Config) {
	fmt.Println("Table 1: simulation parameters")
	fmt.Printf("  Total number of users:    %d\n", cfg.Users)
	fmt.Printf("  Number of sites:          %d\n", cfg.Sites)
	fmt.Printf("  Compute elements/site:    %d-%d\n", cfg.MinCEs, cfg.MaxCEs)
	fmt.Printf("  Total number of datasets: %d\n", cfg.Files)
	fmt.Printf("  Connectivity bandwidth:   %g MB/s (scenario 1), %g MB/s (scenario 2)\n",
		cfg.BandwidthMBps, cfg.BandwidthMBps*10)
	fmt.Printf("  Size of workload:         %d jobs\n", cfg.TotalJobs)
	fmt.Println("Documented assumptions (not in the paper's Table 1):")
	fmt.Printf("  Dataset sizes:            %g-%g GB uniform\n", cfg.MinFileGB, cfg.MaxFileGB)
	fmt.Printf("  Compute per GB of input:  %g s\n", cfg.ComputePerGB)
	fmt.Printf("  Popularity:               %v (p=%g)\n", cfg.Popularity, cfg.GeomP)
	fmt.Printf("  Per-site storage:         %g GB (LRU)\n", cfg.StorageGB)
	fmt.Printf("  DS interval/threshold:    %gs / %d accesses\n", cfg.DSInterval, cfg.DSThreshold)
	fmt.Printf("  Region fanout:            %d sites per regional center\n", cfg.RegionFanout)
}
