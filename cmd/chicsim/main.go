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
	"os"
	"strconv"
	"strings"

	"chicsim/internal/core"
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/report"
	"chicsim/internal/workload"
)

// cli holds chicsim's own flags: where the base configuration comes
// from and what to do with the run.
type cli struct {
	scenario, configPath, saveConfig, tracePath string
	list, heatmap, hist, jsonOut                bool
}

// newFlagSet binds every chicsim flag: the model flags onto cfg, with
// cfg's values as their defaults, and the rest onto c and the returned
// observability flags.
func newFlagSet(cfg *core.Config, c *cli) (*flag.FlagSet, *obs.Flags) {
	fs := flag.NewFlagSet("chicsim", flag.ContinueOnError)
	fs.Uint64Var(&cfg.Seed, "seed", cfg.Seed, "random seed")
	fs.IntVar(&cfg.Sites, "sites", cfg.Sites, "number of sites")
	fs.IntVar(&cfg.Users, "users", cfg.Users, "number of users")
	fs.IntVar(&cfg.Files, "files", cfg.Files, "number of datasets")
	fs.IntVar(&cfg.TotalJobs, "jobs", cfg.TotalJobs, "total jobs")
	fs.IntVar(&cfg.MinCEs, "min-ces", cfg.MinCEs, "min compute elements per site")
	fs.IntVar(&cfg.MaxCEs, "max-ces", cfg.MaxCEs, "max compute elements per site")
	fs.IntVar(&cfg.RegionFanout, "fanout", cfg.RegionFanout, "sites per regional center")
	fs.Func("tiers", "comma-separated fanouts for a multi-tier tree (e.g. 2,3,2); product must equal -sites", func(s string) error {
		var tiers []int
		for _, part := range strings.Split(s, ",") {
			n, err := strconv.Atoi(strings.TrimSpace(part))
			if err != nil {
				return err
			}
			tiers = append(tiers, n)
		}
		cfg.Tiers = tiers
		return nil
	})
	fs.Float64Var(&cfg.CPUSpreadFrac, "cpu-spread", cfg.CPUSpreadFrac, "per-site CPU speed spread in [0,1) (0 = paper's homogeneous processors)")
	fs.Float64Var(&cfg.BandwidthMBps, "bw", cfg.BandwidthMBps, "link bandwidth (MB/s)")
	fs.Float64Var(&cfg.BackboneMBps, "backbone", cfg.BackboneMBps, "backbone link bandwidth (MB/s, 0 = same as -bw)")
	fs.BoolFunc("maxmin", "use max-min fair bandwidth sharing instead of equal share", func(s string) error {
		on, err := strconv.ParseBool(s)
		if on {
			cfg.Sharing = netsim.MaxMinFair
		}
		return err
	})
	fs.Float64Var(&cfg.ThinkTimeMean, "think", cfg.ThinkTimeMean, "mean user think time between jobs (s, 0 = paper's immediate resubmission)")
	fs.Float64Var(&cfg.ArrivalRate, "arrival-rate", cfg.ArrivalRate, "open-model per-user Poisson submission rate (jobs/s, 0 = paper's closed model)")
	fs.Float64Var(&cfg.StorageGB, "storage", cfg.StorageGB, "per-site storage (GB, <=0 unlimited)")
	fs.Float64Var(&cfg.GeomP, "geom-p", cfg.GeomP, "geometric popularity parameter")
	fs.Func("zipf", "use Zipf popularity with this alpha instead of geometric", func(s string) error {
		alpha, err := strconv.ParseFloat(s, 64)
		if err != nil || alpha <= 0 {
			return fmt.Errorf("alpha %q, want a number > 0", s)
		}
		cfg.Popularity, cfg.ZipfAlpha = workload.Zipf, alpha
		return nil
	})
	fs.BoolFunc("uniform-pop", "use uniform dataset popularity", func(s string) error {
		on, err := strconv.ParseBool(s)
		if on {
			cfg.Popularity = workload.Uniform
		}
		return err
	})
	fs.IntVar(&cfg.InputsPerJob, "inputs", cfg.InputsPerJob, "input files per job")
	fs.Float64Var(&cfg.UserFocus, "user-focus", cfg.UserFocus, "fraction of requests drawn from per-user working sets (0 = paper)")
	fs.Float64Var(&cfg.OutputFraction, "output", cfg.OutputFraction, "job output size as a fraction of input (0 = paper, costs ignored)")
	fs.StringVar(&cfg.ES, "es", cfg.ES, "external scheduler algorithm")
	fs.StringVar(&cfg.BatchES, "batch-es", cfg.BatchES, "use a centralized batch heuristic instead of -es (BatchMinMin, BatchMaxMin, BatchSufferage)")
	fs.Float64Var(&cfg.BatchWindow, "batch-window", cfg.BatchWindow, "batch scheduling window (s; required with -batch-es)")
	fs.StringVar(&cfg.LS, "ls", cfg.LS, "local scheduler algorithm")
	fs.StringVar(&cfg.DS, "ds", cfg.DS, "dataset scheduler algorithm")
	fs.Float64Var(&cfg.DSInterval, "ds-interval", cfg.DSInterval, "dataset scheduler wake interval (s)")
	fs.IntVar(&cfg.DSThreshold, "ds-threshold", cfg.DSThreshold, "popularity threshold for replication")
	fs.IntVar(&cfg.DSDeleteAfter, "ds-delete-after", cfg.DSDeleteAfter, "DS deletes replicas idle for this many windows (0 = LRU only)")
	fs.Func("mapping", "user->ES mapping: per-site (the default), central, per-user", func(s string) error {
		for _, m := range []core.ESMapping{core.ESPerSite, core.ESCentral, core.ESPerUser} {
			if m.String() == s {
				cfg.Mapping = m
				return nil
			}
		}
		return errors.New("want per-site, central or per-user")
	})
	fs.Float64Var(&cfg.MaxTime, "max-time", cfg.MaxTime, "abort after this virtual time (0 = none)")
	fs.StringVar(&cfg.ResultMode, "result-mode", cfg.ResultMode, "result collection: full (one response time per job) or bounded (constant-memory sketches; exact aggregates identical)")
	fs.Float64Var(&cfg.InfoStaleness, "staleness", cfg.InfoStaleness, "GIS snapshot staleness (s, 0 = oracle)")
	fs.BoolVar(&cfg.RegionalInfo, "regional-info", cfg.RegionalInfo, "schedulers see only in-region replicas plus masters")
	f := &cfg.Faults
	fs.Float64Var(&f.SiteCrash.MTBF, "site-mtbf", f.SiteCrash.MTBF, "mean time between site crashes (s, 0 = off)")
	fs.Float64Var(&f.SiteCrash.MTTR, "site-mttr", f.SiteCrash.MTTR, "mean site repair time (s, with -site-mtbf; 0 = 600)")
	fs.Float64Var(&f.CEFailure.MTBF, "ce-mtbf", f.CEFailure.MTBF, "mean time between compute-element failures (s, 0 = off)")
	fs.Float64Var(&f.CEFailure.MTTR, "ce-mttr", f.CEFailure.MTTR, "mean compute-element repair time (s, with -ce-mtbf; 0 = 300)")
	fs.Float64Var(&f.LinkDegrade.MTBF, "link-mtbf", f.LinkDegrade.MTBF, "mean time between link degradations (s, 0 = off)")
	fs.Float64Var(&f.LinkDegrade.MTTR, "link-mttr", f.LinkDegrade.MTTR, "mean link degradation repair time (s, with -link-mtbf; 0 = 600)")
	fs.Float64Var(&f.LinkOutage.MTBF, "outage-mtbf", f.LinkOutage.MTBF, "mean time between link outages (s, 0 = off)")
	fs.Float64Var(&f.LinkOutage.MTTR, "outage-mttr", f.LinkOutage.MTTR, "mean link outage repair time (s, with -outage-mtbf; 0 = 300)")
	fs.Float64Var(&f.TransferAbort.MTBF, "abort-mtbf", f.TransferAbort.MTBF, "mean time between transfer aborts (s, 0 = off)")
	fs.Float64Var(&f.ReplicaLoss.MTBF, "loss-mtbf", f.ReplicaLoss.MTBF, "mean time between cached-replica losses (s, 0 = off)")
	fs.Float64Var(&f.DegradeFactor, "degrade-factor", f.DegradeFactor, "bandwidth multiplier a degraded link runs at (0 = default 0.1)")
	fs.IntVar(&f.MaxRetries, "fault-retries", f.MaxRetries, "ES resubmissions before abandoning a failed job (0 = default 3, -1 = none)")
	fs.BoolVar(&f.RequeueOnRecovery, "fault-requeue", f.RequeueOnRecovery, "crashed sites keep queued jobs and requeue them on recovery")
	fs.BoolVar(&f.RestoreReplicas, "fault-restore", f.RestoreReplicas, "DS re-replicates popular files lost to faults")

	fs.StringVar(&c.scenario, "scenario", "", "start from a named preset (see -list); model flags override it")
	fs.StringVar(&c.configPath, "config", "", "start from the configuration in this JSON file; model flags override it")
	fs.StringVar(&c.saveConfig, "save-config", "", "write the effective configuration to this file and exit")
	fs.StringVar(&c.tracePath, "trace", "", "replay a workload trace file instead of generating")
	fs.BoolVar(&c.list, "list", false, "list available algorithms and scenarios, then exit")
	fs.BoolVar(&c.heatmap, "heatmap", false, "render a per-site occupancy heatmap of the run, sampled every -obs-interval")
	fs.BoolVar(&c.hist, "hist", false, "render the response-time histogram of the run")
	fs.BoolVar(&c.jsonOut, "json", false, "emit results as JSON instead of text")
	return fs, obs.BindFlags(fs)
}

func main() {
	// The first parse finds the base; the second binds every flag given
	// onto it, so each one overrides the base whatever their order.
	var c cli
	scratch := core.DefaultConfig()
	fs, _ := newFlagSet(&scratch, &c)
	obs.ParseFlags(fs, os.Args[1:])
	if c.list {
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
	cfg := core.DefaultConfig()
	switch {
	case c.scenario != "" && c.configPath != "":
		usageError("-scenario and -config both name the base configuration; give one")
	case c.scenario != "":
		var err error
		if cfg, err = core.Scenario(c.scenario); err != nil {
			usageError("%v", err)
		}
	case c.configPath != "":
		f, err := os.Open(c.configPath)
		if err != nil {
			fatal(err)
		}
		cfg, err = core.LoadConfig(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
	}
	fs, obsFlags := newFlagSet(&cfg, &c)
	obs.ParseFlags(fs, os.Args[1:])
	cfg.Faults = cfg.Faults.WithRepairDefaults()

	if c.tracePath != "" {
		f, err := os.Open(c.tracePath)
		if err != nil {
			fatal(err)
		}
		w, err := workload.ReadTrace(f)
		f.Close()
		if err != nil {
			fatal(err)
		}
		cfg.Trace = w
	}
	if c.saveConfig != "" {
		f, err := os.Create(c.saveConfig)
		if err != nil {
			fatal(err)
		}
		err = cfg.WriteJSON(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err != nil {
			fatal(err)
		}
		fmt.Fprintf(os.Stderr, "chicsim: wrote configuration to %s\n", c.saveConfig)
		return
	}

	if err := obsFlags.Check(); err != nil {
		usageError("%v", err)
	}
	if c.heatmap || obsFlags.Observing() {
		cfg.ObsInterval = obsFlags.SeriesInterval
	}
	if c.heatmap && cfg.ObsInterval <= 0 {
		usageError("-heatmap draws the probe series and needs -obs-interval > 0")
	}
	sess, err := obsFlags.Start("chicsim", cfg, []uint64{cfg.Seed}, func() any {
		return map[string]any{
			"command": "chicsim", "seed": cfg.Seed,
			"es": cfg.ES, "ls": cfg.LS, "ds": cfg.DS,
		}
	})
	if err != nil {
		fatal(err)
	}
	cfg.Metrics, cfg.Watchdog, cfg.ObsSink = sess.Registry, sess.Watchdog, sess.Sink
	var heat *obs.Series // what -heatmap draws
	if c.heatmap {
		heat = new(obs.Series)
		cfg.ObsSink = obs.Tee(sess.Sink, heat)
	}
	if sess.Trace != nil {
		cfg.Recorder = sess.Trace
	}
	if sess.Watchdog != watchdog.Off {
		cfg.OnViolation = func(v watchdog.Violation) { sess.Violation("", v, v) }
	}
	sess.ExitOnInterrupt(nil)

	res, err := core.RunConfig(cfg)
	if ferr := sess.Finish(false); err == nil {
		err = ferr
	}
	if err != nil {
		fatal(err)
	}
	if c.jsonOut {
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(res); err != nil {
			fatal(err)
		}
		return
	}
	printResults(res)
	if c.hist {
		fmt.Println()
		report.ResponseHistogram(os.Stdout, res.RespHistCounts, res.RespHistEdges, 60)
	}
	if res.ResultMode == core.ResultModeBounded {
		fmt.Println()
		report.HotItems(os.Stdout, "site", res.TopSites)
		fmt.Println()
		report.HotItems(os.Stdout, "dataset", res.TopDatasets)
	}
	if c.heatmap {
		fmt.Println()
		report.Heatmap(os.Stdout, heat, 100)
		fmt.Println()
		report.Timeline(os.Stdout, heat, 100)
	}
}

// usageError reports a bad invocation in one line and exits with status 2.
func usageError(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "chicsim: "+format+"\n", args...)
	os.Exit(2)
}

// fatal reports a failed run in one line and exits with status 1.
func fatal(err error) {
	fmt.Fprintln(os.Stderr, "chicsim:", err)
	os.Exit(1)
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
