// Command chicsim runs a single Data Grid simulation and prints its
// measurements.
//
// Example (the paper's Table 1 scenario 1 with the winning pair):
//
//	chicsim -es JobDataPresent -ds DataLeastLoaded -bw 10
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"

	"chicsim/internal/core"
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
	"chicsim/internal/obs/monitor"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/report"
	"chicsim/internal/trace"
	"chicsim/internal/workload"
)

func main() {
	cfg := core.DefaultConfig()
	flag.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	flag.IntVar(&cfg.Sites, "sites", cfg.Sites, "number of sites")
	flag.IntVar(&cfg.Users, "users", cfg.Users, "number of users")
	flag.IntVar(&cfg.Files, "files", cfg.Files, "number of datasets")
	flag.IntVar(&cfg.TotalJobs, "jobs", cfg.TotalJobs, "total jobs")
	flag.IntVar(&cfg.MinCEs, "min-ces", cfg.MinCEs, "min compute elements per site")
	flag.IntVar(&cfg.MaxCEs, "max-ces", cfg.MaxCEs, "max compute elements per site")
	flag.IntVar(&cfg.RegionFanout, "fanout", cfg.RegionFanout, "sites per regional center")
	tiers := flag.String("tiers", "", "comma-separated fanouts for a multi-tier tree (e.g. 2,3,2); product must equal -sites")
	flag.Float64Var(&cfg.CPUSpreadFrac, "cpu-spread", cfg.CPUSpreadFrac, "per-site CPU speed spread in [0,1) (0 = paper's homogeneous processors)")
	flag.Float64Var(&cfg.BandwidthMBps, "bw", cfg.BandwidthMBps, "link bandwidth (MB/s)")
	flag.Float64Var(&cfg.BackboneMBps, "backbone", cfg.BackboneMBps, "backbone link bandwidth (MB/s, 0 = same as -bw)")
	flag.Float64Var(&cfg.ThinkTimeMean, "think", cfg.ThinkTimeMean, "mean user think time between jobs (s, 0 = paper's immediate resubmission)")
	flag.Float64Var(&cfg.ArrivalRate, "arrival-rate", cfg.ArrivalRate, "open-model per-user Poisson submission rate (jobs/s, 0 = paper's closed model)")
	flag.Float64Var(&cfg.StorageGB, "storage", cfg.StorageGB, "per-site storage (GB, <=0 unlimited)")
	flag.Float64Var(&cfg.GeomP, "geom-p", cfg.GeomP, "geometric popularity parameter")
	flag.IntVar(&cfg.InputsPerJob, "inputs", cfg.InputsPerJob, "input files per job")
	flag.Float64Var(&cfg.UserFocus, "user-focus", cfg.UserFocus, "fraction of requests drawn from per-user working sets (0 = paper)")
	flag.Float64Var(&cfg.OutputFraction, "output", cfg.OutputFraction, "job output size as a fraction of input (0 = paper, costs ignored)")
	flag.StringVar(&cfg.ES, "es", cfg.ES, "external scheduler algorithm")
	flag.StringVar(&cfg.BatchES, "batch-es", cfg.BatchES, "use a centralized batch heuristic instead of -es (BatchMinMin, BatchMaxMin, BatchSufferage)")
	flag.Float64Var(&cfg.BatchWindow, "batch-window", cfg.BatchWindow, "batch scheduling window (s; required with -batch-es)")
	flag.StringVar(&cfg.LS, "ls", cfg.LS, "local scheduler algorithm")
	flag.StringVar(&cfg.DS, "ds", cfg.DS, "dataset scheduler algorithm")
	flag.Float64Var(&cfg.DSInterval, "ds-interval", cfg.DSInterval, "dataset scheduler wake interval (s)")
	flag.IntVar(&cfg.DSThreshold, "ds-threshold", cfg.DSThreshold, "popularity threshold for replication")
	flag.IntVar(&cfg.DSDeleteAfter, "ds-delete-after", cfg.DSDeleteAfter, "DS deletes replicas idle for this many windows (0 = LRU only)")
	flag.Float64Var(&cfg.MaxTime, "max-time", cfg.MaxTime, "abort after this virtual time (0 = none)")
	flag.StringVar(&cfg.ResultMode, "result-mode", cfg.ResultMode, "result collection: full (one response time per job) or bounded (constant-memory sketches; exact aggregates identical)")
	flag.Float64Var(&cfg.InfoStaleness, "staleness", cfg.InfoStaleness, "GIS snapshot staleness (s, 0 = oracle)")
	flag.BoolVar(&cfg.RegionalInfo, "regional-info", cfg.RegionalInfo, "schedulers see only in-region replicas plus masters")
	flag.Float64Var(&cfg.Faults.SiteCrash.MTBF, "site-mtbf", cfg.Faults.SiteCrash.MTBF, "mean time between site crashes (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.SiteCrash.MTTR, "site-mttr", 600, "mean site repair time (s, with -site-mtbf)")
	flag.Float64Var(&cfg.Faults.CEFailure.MTBF, "ce-mtbf", cfg.Faults.CEFailure.MTBF, "mean time between compute-element failures (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.CEFailure.MTTR, "ce-mttr", 300, "mean compute-element repair time (s, with -ce-mtbf)")
	flag.Float64Var(&cfg.Faults.LinkDegrade.MTBF, "link-mtbf", cfg.Faults.LinkDegrade.MTBF, "mean time between link degradations (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.LinkDegrade.MTTR, "link-mttr", 600, "mean link degradation repair time (s, with -link-mtbf)")
	flag.Float64Var(&cfg.Faults.LinkOutage.MTBF, "outage-mtbf", cfg.Faults.LinkOutage.MTBF, "mean time between link outages (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.LinkOutage.MTTR, "outage-mttr", 300, "mean link outage repair time (s, with -outage-mtbf)")
	flag.Float64Var(&cfg.Faults.TransferAbort.MTBF, "abort-mtbf", cfg.Faults.TransferAbort.MTBF, "mean time between transfer aborts (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.ReplicaLoss.MTBF, "loss-mtbf", cfg.Faults.ReplicaLoss.MTBF, "mean time between cached-replica losses (s, 0 = off)")
	flag.Float64Var(&cfg.Faults.DegradeFactor, "degrade-factor", cfg.Faults.DegradeFactor, "bandwidth multiplier a degraded link runs at (0 = default 0.1)")
	flag.IntVar(&cfg.Faults.MaxRetries, "fault-retries", cfg.Faults.MaxRetries, "ES resubmissions before abandoning a failed job (0 = default 3, -1 = none)")
	flag.BoolVar(&cfg.Faults.RequeueOnRecovery, "fault-requeue", cfg.Faults.RequeueOnRecovery, "crashed sites keep queued jobs and requeue them on recovery")
	flag.BoolVar(&cfg.Faults.RestoreReplicas, "fault-restore", cfg.Faults.RestoreReplicas, "DS re-replicates popular files lost to faults")
	maxmin := flag.Bool("maxmin", false, "use max-min fair bandwidth sharing instead of equal share")
	zipf := flag.Float64("zipf", 0, "use Zipf popularity with this alpha instead of geometric")
	uniformPop := flag.Bool("uniform-pop", false, "use uniform dataset popularity")
	mapping := flag.String("mapping", "per-site", "user->ES mapping: per-site, central, per-user")
	tracePath := flag.String("trace", "", "replay a workload trace file instead of generating")
	listAlgos := flag.Bool("list", false, "list available algorithms and scenarios, then exit")
	scenario := flag.String("scenario", "", "start from a named preset (see -list); model flags given before -scenario are ignored")
	heatmap := flag.Bool("heatmap", false, "render a per-site occupancy heatmap of the run, sampled every -obs-interval")
	hist := flag.Bool("hist", false, "render the response-time histogram of the run")
	jsonOut := flag.Bool("json", false, "emit results as JSON instead of text")
	configPath := flag.String("config", "", "load the model configuration from a JSON file (model flags are then ignored)")
	saveConfig := flag.String("save-config", "", "write the effective configuration to this file and exit")
	obsFlags := obs.BindFlags(flag.CommandLine)
	// Parse silently: a bad flag is one line on stderr, not the usage.
	flag.CommandLine.Init("chicsim", flag.ContinueOnError)
	flag.CommandLine.SetOutput(io.Discard)
	if err := flag.CommandLine.Parse(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			flag.CommandLine.SetOutput(os.Stderr)
			flag.Usage()
			os.Exit(0)
		}
		fmt.Fprintln(os.Stderr, "chicsim:", err)
		os.Exit(2)
	}

	if *configPath != "" {
		f, err := os.Open(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		cfg, err = core.LoadConfig(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
	}

	if *listAlgos {
		fmt.Println("External schedulers:", core.ExternalNames())
		fmt.Println("Batch schedulers:   ", core.BatchNames())
		fmt.Println("Local schedulers:   ", core.LocalNames())
		fmt.Println("Dataset schedulers: ", core.DatasetNames())
		fmt.Println("Scenarios:")
		for _, name := range core.ScenarioNames() {
			fmt.Printf("  %-18s %s\n", name, core.ScenarioDescription(name))
		}
		return
	}
	if *scenario != "" {
		loaded, err := core.Scenario(*scenario)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(2)
		}
		cfg = loaded
	}
	if *maxmin {
		cfg.Sharing = netsim.MaxMinFair
	}
	if *zipf > 0 {
		cfg.Popularity = workload.Zipf
		cfg.ZipfAlpha = *zipf
	}
	if *uniformPop {
		cfg.Popularity = workload.Uniform
	}
	switch *mapping {
	case "per-site":
		cfg.Mapping = core.ESPerSite
	case "central":
		cfg.Mapping = core.ESCentral
	case "per-user":
		cfg.Mapping = core.ESPerUser
	default:
		fmt.Fprintf(os.Stderr, "chicsim: unknown mapping %q\n", *mapping)
		os.Exit(2)
	}
	if *tracePath != "" {
		f, err := os.Open(*tracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		w, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		cfg.Trace = w
	}

	if *saveConfig != "" {
		f, err := os.Create(*saveConfig)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		err = cfg.WriteJSON(f)
		f.Close()
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "chicsim: wrote configuration to %s\n", *saveConfig)
		return
	}
	if *tiers != "" {
		cfg.Tiers = nil
		for _, part := range strings.Split(*tiers, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				fmt.Fprintf(os.Stderr, "chicsim: bad -tiers value %q: %v\n", part, err)
				os.Exit(2)
			}
			cfg.Tiers = append(cfg.Tiers, n)
		}
	}
	if *heatmap || obsFlags.SeriesPath != "" || obsFlags.StreamPath != "" {
		cfg.ObsInterval = obsFlags.SeriesInterval
	}
	if *heatmap && cfg.ObsInterval <= 0 {
		fmt.Fprintln(os.Stderr, "chicsim: -heatmap draws the probe series and needs -obs-interval > 0")
		os.Exit(2)
	}
	if obsFlags.SeriesInterval < 0 {
		fmt.Fprintf(os.Stderr, "chicsim: -obs-interval = %v, want >= 0\n", obsFlags.SeriesInterval)
		os.Exit(2)
	}

	// Live control plane: a metrics registry when anything wants to read
	// it, a watchdog when asked for. Both need the obs tick.
	wdMode, err := watchdog.ParseMode(obsFlags.WatchdogMode)
	if err != nil {
		fmt.Fprintln(os.Stderr, "chicsim:", err)
		os.Exit(2)
	}
	var reg *registry.Registry
	if obsFlags.ListenAddr != "" || obsFlags.MetricsPath != "" {
		reg = registry.New()
		cfg.Metrics = reg
	}
	cfg.Watchdog = wdMode
	if (reg != nil || wdMode != watchdog.Off) && cfg.ObsInterval == 0 {
		cfg.ObsInterval = obsFlags.SeriesInterval
	}
	var srv *monitor.Server
	if obsFlags.ListenAddr != "" {
		var extra map[string]http.Handler
		if obsFlags.Pprof {
			extra = monitor.PprofHandlers()
		}
		srv, err = monitor.StartMux(obsFlags.ListenAddr, reg, func() any {
			return map[string]any{
				"command": "chicsim", "seed": cfg.Seed,
				"es": cfg.ES, "ls": cfg.LS, "ds": cfg.DS,
			}
		}, extra)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		defer srv.Close()
		fmt.Fprintf(os.Stderr, "chicsim: monitor listening on http://%s (/metrics /status /events)\n", srv.Addr())
	}
	if wdMode != watchdog.Off {
		cfg.OnViolation = func(v watchdog.Violation) {
			fmt.Fprintln(os.Stderr, "chicsim: watchdog:", v)
			if srv != nil {
				srv.Publish("violation", v)
			}
		}
	}
	streamSink, closeStream, err := obsFlags.OpenStreamSink()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chicsim:", err)
		os.Exit(1)
	}
	cfg.ObsSink = streamSink

	var traceRec *trace.StreamRecorder
	var closeTrace func() error
	if obsFlags.TracePath != "" {
		w, err := trace.CreateWriter(obsFlags.TracePath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		traceRec = trace.NewStreamRecorder(w)
		cfg.Recorder = traceRec
		closeTrace = func() error {
			if err := traceRec.Flush(); err != nil {
				w.Close()
				return err
			}
			return w.Close()
		}
	}

	var manifest *obs.Manifest
	if obsFlags.ManifestPath != "" {
		var err error
		manifest, err = obs.NewManifest("chicsim", cfg, []uint64{cfg.Seed})
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
	}
	stopProfiling, err := obsFlags.StartProfiling()
	if err != nil {
		fmt.Fprintln(os.Stderr, "chicsim:", err)
		os.Exit(1)
	}

	// On SIGINT/SIGTERM, flush every open artifact (sample stream, trace,
	// manifest marked interrupted) before exiting, so a cancelled run still
	// leaves usable partial output. A second signal force-kills.
	sigc := make(chan os.Signal, 2)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	go func() {
		<-sigc
		fmt.Fprintln(os.Stderr, "chicsim: interrupted; flushing partial output")
		if closeStream != nil {
			closeStream()
		}
		if closeTrace != nil {
			closeTrace()
		}
		if manifest != nil {
			manifest.MarkInterrupted()
			manifest.Finish()
			if err := manifest.WriteFile(obsFlags.ManifestPath); err != nil {
				fmt.Fprintln(os.Stderr, "chicsim:", err)
			}
		}
		if srv != nil {
			srv.Close()
		}
		os.Exit(130)
	}()

	res, err := core.RunConfig(cfg)
	if perr := stopProfiling(); perr != nil {
		fmt.Fprintln(os.Stderr, "chicsim:", perr)
	}
	if closeStream != nil {
		if cerr := closeStream(); cerr != nil && err == nil {
			err = cerr
		}
	}
	if closeTrace != nil {
		if terr := closeTrace(); terr != nil && err == nil {
			err = terr
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "chicsim:", err)
		os.Exit(1)
	}
	if traceRec != nil {
		fmt.Fprintf(os.Stderr, "chicsim: wrote %d trace events to %s\n", traceRec.Recorded(), obsFlags.TracePath)
	}
	if obsFlags.SeriesPath != "" {
		f, err := os.Create(obsFlags.SeriesPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		report.SeriesCSV(f, res.Series)
		if err := f.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		samples := 0
		if res.Series != nil {
			samples = len(res.Series.Points)
		}
		fmt.Fprintf(os.Stderr, "chicsim: wrote %d probe samples to %s\n", samples, obsFlags.SeriesPath)
	}
	if manifest != nil {
		manifest.Finish()
		if err := manifest.WriteFile(obsFlags.ManifestPath); err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
	}
	if obsFlags.MetricsPath != "" {
		f, err := os.Create(obsFlags.MetricsPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		werr := registry.WritePrometheus(f, reg.Gather())
		if cerr := f.Close(); werr == nil {
			werr = cerr
		}
		if werr != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", werr)
			os.Exit(1)
		}
		fmt.Fprintf(os.Stderr, "chicsim: wrote metrics snapshot to %s\n", obsFlags.MetricsPath)
	}
	if *jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fmt.Fprintln(os.Stderr, "chicsim:", err)
			os.Exit(1)
		}
		return
	}
	printResults(res)
	if *hist {
		fmt.Println()
		report.ResponseHistogram(os.Stdout, res.RespHistCounts, res.RespHistEdges, 60)
	}
	if res.ResultMode == core.ResultModeBounded {
		fmt.Println()
		report.HotItems(os.Stdout, "site", res.TopSites)
		fmt.Println()
		report.HotItems(os.Stdout, "dataset", res.TopDatasets)
	}
	if *heatmap {
		fmt.Println()
		report.Heatmap(os.Stdout, res.Series, 100)
		fmt.Println()
		report.Timeline(os.Stdout, res.Series, 100)
	}
}

func printResults(r core.Results) {
	fmt.Printf("scenario: ES=%s LS=%s DS=%s bw=%gMB/s seed=%d\n", r.ES, r.LS, r.DS, r.BandwidthMBps, r.Seed)
	fmt.Printf("jobs done:             %d (completed=%v)\n", r.JobsDone, r.Completed)
	fmt.Printf("makespan:              %.0f s\n", r.Makespan)
	fmt.Printf("avg response time:     %.1f s   (median %.1f, p95 %.1f)\n", r.AvgResponseSec, r.MedResponseSec, r.P95ResponseSec)
	if r.ResultMode == core.ResultModeBounded {
		fmt.Printf("result mode:           bounded (min %.1f, max %.1f exact; quantiles ±%.0f%%, %d exemplar rows)\n",
			r.MinResponseSec, r.MaxResponseSec, 100*r.RespQuantileRelErr, len(r.Exemplars))
	}
	fmt.Printf("avg queue wait:        %.1f s\n", r.AvgQueueWait)
	fmt.Printf("response breakdown:    dispatch %.1f + data %.1f + cpu %.1f + exec %.1f s\n",
		r.AvgDispatchWaitSec, r.AvgDataWaitSec, r.AvgCPUWaitSec, r.AvgExecSec)
	fmt.Printf("avg data moved/job:    %.1f MB  (fetch %.1f + replication %.1f + output %.1f)\n",
		r.AvgDataPerJobMB, r.FetchMBPerJob, r.ReplMBPerJob, r.OutputMBPerJob)
	fmt.Printf("processor idle time:   %.1f%%  (over %d CEs)\n", 100*r.IdleFrac, r.TotalCEs)
	fmt.Printf("fetches:               %d started, cache %d hits / %d misses, %d evictions\n",
		r.FetchesStarted, r.CacheHits, r.CacheMisses, r.Evictions)
	fmt.Printf("replications:          %d pushes\n", r.Replications)
	if r.Faults.FaultsInjected > 0 || r.JobsFailed > 0 {
		fmt.Printf("faults injected:       %d (site %d, CE %d, link %d+%d, abort %d, loss %d), %d repairs\n",
			r.Faults.FaultsInjected, r.Faults.SiteCrashes, r.Faults.CEFailures,
			r.Faults.LinkDegradations, r.Faults.LinkOutages,
			r.Faults.TransfersAborted, r.Faults.ReplicasLost, r.Faults.Repairs)
		fmt.Printf("fault recovery:        %d retries, %d jobs abandoned, %d fetches restarted, %d replicas restored\n",
			r.JobsRetried, r.JobsFailed, r.TransfersRestarted, r.ReplicasRestored)
	}
	if r.WatchdogViolations > 0 {
		fmt.Printf("watchdog:              %d invariant violations\n", r.WatchdogViolations)
	}
	fmt.Printf("simulation:            %d events, virtual end %.0f s\n", r.SimEvents, r.SimEndTime)
}
