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
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/fabric"
	"chicsim/internal/obs"
	"chicsim/internal/obs/monitor"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/report"
	"chicsim/internal/trace"
)

func main() {
	fig := flag.String("fig", "all", "which figure to regenerate: 3a, 3b, 4, 5, faults, feedback, seeds, sensitivity, all")
	siteMTBFs := flag.String("site-mtbf", "0,14400,7200,3600", "comma-separated site-crash MTBFs for -fig faults (s; 0 = failure-free control)")
	faultMTTR := flag.Float64("fault-mttr", 600, "mean site repair time for -fig faults/feedback (s)")
	fbStaleness := flag.Float64("feedback-staleness", 120, "GIS InfoStaleness for the -fig feedback contended scenario (s)")
	fbMTBF := flag.Float64("feedback-mtbf", 3600, "site-crash MTBF for the -fig feedback degraded column (s; 0 = skip)")
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
	flag.Parse()

	if obsFlags.StreamPath != "" {
		fmt.Fprintln(os.Stderr, "gridsweep: -obs-stream applies to a single simulation; ignoring (use chicsim -obs-stream)")
		obsFlags.StreamPath = ""
	}
	if obsFlags.TracePath != "" {
		fmt.Fprintln(os.Stderr, "gridsweep: -trace-out applies to a single simulation; ignoring (use chicsim -trace-out or dgetrace -run)")
		obsFlags.TracePath = ""
	}

	base := core.DefaultConfig()
	base.ResultMode = *resultMode
	if *list {
		printTable1(base)
		return
	}

	var mtbfs []float64
	switch *fig {
	case "faults":
		for _, part := range strings.Split(*siteMTBFs, ",") {
			v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil || v < 0 {
				fmt.Fprintf(os.Stderr, "gridsweep: bad -site-mtbf value %q\n", part)
				os.Exit(2)
			}
			mtbfs = append(mtbfs, v)
		}
	case "feedback":
		mtbfs = []float64{0}
		if *fbMTBF > 0 {
			mtbfs = append(mtbfs, *fbMTBF)
		}
	}

	if *fromJSONL != "" {
		results, err := experiments.ReadStreamFile(*fromJSONL)
		if err != nil {
			// A campaign killed mid-write leaves a truncated final line;
			// every intact record before it is still good.
			if len(results) == 0 {
				fmt.Fprintln(os.Stderr, "gridsweep:", err)
				os.Exit(1)
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
		render(results, *fig, *csv, *md, mtbfs)
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

	var cells []experiments.Cell
	switch *fig {
	case "3a", "3b", "4":
		cells = experiments.PaperCells(10)
	case "5":
		cells = experiments.Figure5Cells()
	case "seeds":
		if len(seedList) < 2 {
			fmt.Fprintln(os.Stderr, "gridsweep: -fig seeds needs -seeds 2 or more (and no -quick)")
			os.Exit(2)
		}
		cells = experiments.PaperCells(10)
	case "sensitivity":
		cells = experiments.SensitivityCells()
	case "faults":
		base.Faults.SiteCrash.MTTR = *faultMTTR
		base.Faults.RequeueOnRecovery = true
		base.Faults.RestoreReplicas = true
		cells = experiments.FaultSweepCells(10, mtbfs)
	case "feedback":
		// Contended grid: stale scheduling information is what the
		// telemetry loop compensates for. The degraded column adds site
		// crashes on top (fault-telemetry avoidance).
		base.InfoStaleness = *fbStaleness
		base.Faults.SiteCrash.MTTR = *faultMTTR
		base.Faults.RequeueOnRecovery = true
		base.Faults.RestoreReplicas = true
		cells = experiments.FeedbackSweepCells(10, mtbfs)
	case "all":
		cells = append(experiments.PaperCells(10), experiments.PaperCells(100)...)
	default:
		fmt.Fprintf(os.Stderr, "gridsweep: unknown figure %q\n", *fig)
		os.Exit(2)
	}

	if *dispatch != "" {
		runDispatched(*dispatch, base, cells, seedList, obsFlags, *jsonlPath, *fleetTrace, *fig, *csv, *md, mtbfs)
		return
	}
	if *fleetTrace != "" {
		fmt.Fprintln(os.Stderr, "gridsweep: -fleet-trace only applies with -dispatch; ignoring")
	}

	totalSims := len(cells) * len(seedList)
	fmt.Fprintf(os.Stderr, "gridsweep: running %d cells × %d seeds (%d simulations)...\n",
		len(cells), len(seedList), totalSims)

	var manifest *obs.Manifest
	if obsFlags.ManifestPath != "" {
		var err error
		manifest, err = obs.NewManifest("gridsweep", base, seedList)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		manifest.SetExtra("cells", len(cells))
	}
	progress := obs.NewProgress(os.Stderr, "gridsweep", totalSims)
	if *progressJSONL != "" {
		f, err := os.Create(*progressJSONL)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		defer f.Close()
		progress.JSONLTo(f)
	}
	stopProfiling, err := obsFlags.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(1)
	}

	// Live control plane: shared metrics registry, invariant watchdog,
	// optional HTTP monitor with per-cell campaign state.
	wdMode, err := watchdog.ParseMode(obsFlags.WatchdogMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(2)
	}
	var reg *registry.Registry
	if obsFlags.ListenAddr != "" || obsFlags.MetricsPath != "" {
		reg = registry.New()
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

	var srv *monitor.Server
	if obsFlags.ListenAddr != "" {
		var extra map[string]http.Handler
		if obsFlags.Pprof {
			extra = monitor.PprofHandlers()
		}
		srv, err = monitor.StartMux(obsFlags.ListenAddr, reg, func() any {
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
		}, extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "gridsweep: monitor listening on http://%s (/metrics /status /events)\n", srv.Addr())
	}

	var stream *experiments.StreamWriter
	if *jsonlPath != "" {
		stream, err = experiments.CreateStream(*jsonlPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
	}

	// On SIGINT/SIGTERM, flush the streamed results and write the manifest
	// marked interrupted: every cell finished so far stays usable
	// (`gridsweep -from-jsonl` rebuilds the reports from them).
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "gridsweep: interrupted; flushing partial results")
		if stream != nil {
			stream.Close()
		}
		if manifest != nil {
			manifest.MarkInterrupted()
			manifest.SetExtra("workers", *workers)
			manifest.Finish()
			if err := manifest.WriteFile(obsFlags.ManifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "gridsweep:", err)
			}
		}
		if srv != nil {
			srv.Close()
		}
		os.Exit(130)
	}()

	campaign := experiments.Campaign{
		Base:     base,
		Cells:    cells,
		Seeds:    seedList,
		Workers:  *workers,
		Progress: progress,
		Metrics:  reg,
		Watchdog: wdMode,
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
			if srv != nil {
				srv.Publish("run_done", map[string]any{"cell": cell.String(), "seed": seed})
			}
		},
		OnCellDone: func(cr *experiments.CellResult) {
			if stream != nil {
				if werr := stream.Write(experiments.RecordOf(cr)); werr != nil {
					fmt.Fprintln(os.Stderr, "gridsweep:", werr)
				}
			}
			if srv != nil {
				srv.Publish("cell_done", map[string]any{
					"cell": cr.Cell.String(), "avg_response_s": cr.AvgResponseSec,
				})
			}
		},
	}
	if wdMode != watchdog.Off {
		campaign.OnViolation = func(cell experiments.Cell, seed uint64, v watchdog.Violation) {
			fmt.Fprintf(os.Stderr, "gridsweep: watchdog: %v seed=%d: %v\n", cell, seed, v)
			if srv != nil {
				srv.Publish("violation", map[string]any{
					"cell": cell.String(), "seed": seed, "violation": v.String(),
				})
			}
		}
	}
	if obsFlags.SeriesPath != "" {
		campaign.ObsInterval = obsFlags.SeriesInterval
	}
	if (reg != nil || wdMode != watchdog.Off) && campaign.ObsInterval == 0 && base.ObsInterval == 0 {
		campaign.ObsInterval = obsFlags.SeriesInterval
	}
	results := experiments.Run(campaign)
	progress.Finish()
	if perr := stopProfiling(); perr != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", perr)
	}
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
	if obsFlags.SeriesPath != "" {
		writeReferenceSeries(results, obsFlags.SeriesPath)
	}
	if obsFlags.MetricsPath != "" {
		if err := writeMetricsSnapshot(reg, obsFlags.MetricsPath); err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
	}
	if manifest != nil {
		manifest.SetExtra("workers", *workers)
		manifest.Finish()
		if err := manifest.WriteFile(obsFlags.ManifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
	}

	render(results, *fig, *csv, *md, mtbfs)
}

// runDispatched shards the campaign across a fabric dispatcher instead of
// simulating locally: submit the spec, wait for the merged stream, then
// render reports from it. Because workers execute cells through the same
// experiments.Run path and the dispatcher merges records into canonical
// campaign order, the stream — and every report rendered from it — is
// byte-identical to a single-process run.
func runDispatched(addr string, base core.Config, cells []experiments.Cell, seeds []uint64,
	obsFlags *obs.Flags, jsonlPath, fleetTrace, fig string, csv, md bool, mtbfs []float64) {
	if obsFlags.ListenAddr != "" || obsFlags.MetricsPath != "" || obsFlags.WatchdogMode != "off" {
		fmt.Fprintln(os.Stderr, "gridsweep: -listen/-metrics-out/-watchdog run on the dispatcher and workers; ignoring in -dispatch mode")
	}
	spec := fabric.CampaignSpec{Base: base, Cells: cells, Seeds: seeds}
	client := &fabric.Client{BaseURL: addr}
	sub, err := client.Submit(spec)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(1)
	}
	if sub.Resumed {
		fmt.Fprintf(os.Stderr, "gridsweep: attached to campaign %s already on dispatcher %s\n", sub.CampaignID, addr)
	} else {
		fmt.Fprintf(os.Stderr, "gridsweep: submitted campaign %s (%d cells × %d seeds) to %s\n",
			sub.CampaignID, len(cells), len(seeds), addr)
	}

	var manifest *obs.Manifest
	if obsFlags.ManifestPath != "" {
		manifest, err = obs.NewManifest("gridsweep", base, seeds)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		manifest.SetExtra("cells", len(cells))
		manifest.SetExtra("dispatcher", addr)
		manifest.SetExtra("campaign_id", sub.CampaignID)
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
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(1)
	}
	if jsonlPath != "" {
		if werr := os.WriteFile(jsonlPath, merged, 0o644); werr != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: wrote merged stream (%d cells) to %s\n", len(cells), jsonlPath)
	}
	if fleetTrace != "" {
		if err := writeFleetTrace(client, fleetTrace); err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: wrote fleet trace to %s (open in Perfetto or chrome://tracing)\n", fleetTrace)
	}
	results, err := experiments.ReadStream(bytes.NewReader(merged))
	if err != nil {
		fmt.Fprintln(os.Stderr, "gridsweep:", err)
		os.Exit(1)
	}
	for i := range results {
		if results[i].Err != nil {
			fmt.Fprintf(os.Stderr, "gridsweep: %v failed: %v\n", results[i].Cell, results[i].Err)
		}
	}
	if manifest != nil {
		manifest.Finish()
		if err := manifest.WriteFile(obsFlags.ManifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
	}
	render(results, fig, csv, md, mtbfs)
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
func render(results []experiments.CellResult, fig string, csv, md bool, mtbfs []float64) {
	// The two studies have one output format each.
	switch fig {
	case "seeds":
		report.SeedVariance(os.Stdout, results, experiments.PaperCells(10))
		return
	case "sensitivity":
		report.SensitivityCSV(os.Stdout, results, experiments.SensitivityCells())
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
	case "faults":
		printFaultTable(results, mtbfs)
	case "feedback":
		printFeedbackTable(results, mtbfs)
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

// writeMetricsSnapshot dumps the campaign registry as Prometheus text.
func writeMetricsSnapshot(reg *registry.Registry, path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	werr := registry.WritePrometheus(f, reg.Gather())
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr == nil {
		fmt.Fprintf(os.Stderr, "gridsweep: wrote metrics snapshot to %s\n", path)
	}
	return werr
}

// printFaultTable renders the degraded-grid sweep: one row per scheduler
// pair, one column per site-crash MTBF, cell value = mean response time
// over seeds (with the abandoned-job count when any jobs were lost).
func printFaultTable(results []experiments.CellResult, mtbfs []float64) {
	byCell := make(map[experiments.Cell]*experiments.CellResult, len(results))
	var pairs []experiments.Cell
	seen := make(map[experiments.Cell]bool)
	for i := range results {
		byCell[results[i].Cell] = &results[i]
		key := experiments.Cell{ES: results[i].Cell.ES, DS: results[i].Cell.DS,
			BandwidthMBps: results[i].Cell.BandwidthMBps}
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, key)
		}
	}
	fmt.Println("Degraded grid: avg response time (s) vs site-crash MTBF")
	fmt.Printf("%-34s", "ES+DS")
	for _, m := range mtbfs {
		if m == 0 {
			fmt.Printf("  %12s", "no faults")
		} else {
			fmt.Printf("  %10gs", m)
		}
	}
	fmt.Println()
	for _, p := range pairs {
		fmt.Printf("%-34s", p.ES+"+"+p.DS)
		for _, m := range mtbfs {
			key := p
			key.SiteMTBF = m
			cr, ok := byCell[key]
			if !ok || cr.Err != nil || len(cr.Runs) == 0 {
				fmt.Printf("  %12s", "-")
				continue
			}
			abandoned := 0
			for _, r := range cr.Runs {
				abandoned += r.JobsFailed
			}
			if abandoned > 0 {
				fmt.Printf("  %8.0f(%d!)", cr.AvgResponseSec, abandoned)
			} else {
				fmt.Printf("  %12.0f", cr.AvgResponseSec)
			}
		}
		fmt.Println()
	}
	fmt.Println("(! = jobs abandoned after exhausting retries, summed over seeds)")
}

// printFeedbackTable renders the adaptive-vs-static sweep: one row per
// scheduler pair, a contended column (stale GIS, no faults) and, when
// requested, a degraded column (site crashes on top).
func printFeedbackTable(results []experiments.CellResult, mtbfs []float64) {
	byCell := make(map[experiments.Cell]*experiments.CellResult, len(results))
	var pairs []experiments.Cell
	seen := make(map[experiments.Cell]bool)
	for i := range results {
		byCell[results[i].Cell] = &results[i]
		key := experiments.Cell{ES: results[i].Cell.ES, DS: results[i].Cell.DS,
			BandwidthMBps: results[i].Cell.BandwidthMBps}
		if !seen[key] {
			seen[key] = true
			pairs = append(pairs, key)
		}
	}
	fmt.Println("Feedback sweep: avg response time (s), contended grid (stale GIS)")
	fmt.Printf("%-34s", "ES+DS")
	for _, m := range mtbfs {
		if m == 0 {
			fmt.Printf("  %14s", "contended")
		} else {
			fmt.Printf("  %5s%8gs", "+mtbf", m)
		}
	}
	fmt.Println()
	for _, p := range pairs {
		fmt.Printf("%-34s", p.ES+"+"+p.DS)
		for _, m := range mtbfs {
			key := p
			key.SiteMTBF = m
			cr, ok := byCell[key]
			if !ok || cr.Err != nil || len(cr.Runs) == 0 {
				fmt.Printf("  %14s", "-")
				continue
			}
			fmt.Printf("  %11.0f±%-2.0f", cr.AvgResponseSec, cr.CI95ResponseSec)
		}
		fmt.Println()
	}
	fmt.Println("(± = 95% CI half-width over seeds)")
}

// writeReferenceSeries dumps the probe series of the campaign's reference
// run — first cell, lowest seed — as CSV. Series are sampled inside each
// simulation's own event loop, so the file is bit-identical for a given
// seed regardless of -workers.
func writeReferenceSeries(results []experiments.CellResult, path string) {
	for i := range results {
		if results[i].Err != nil || len(results[i].Runs) == 0 {
			continue
		}
		run := results[i].Runs[0]
		f, err := os.Create(path)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		report.SeriesCSV(f, run.Series)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "gridsweep:", err)
			os.Exit(1)
		}
		samples := 0
		if run.Series != nil {
			samples = len(run.Series.Points)
		}
		fmt.Fprintf(os.Stderr, "gridsweep: wrote %d probe samples for %v seed=%d to %s\n",
			samples, results[i].Cell, run.Seed, path)
		return
	}
	fmt.Fprintln(os.Stderr, "gridsweep: no successful run to take a series from")
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
