// Benchmarks that regenerate every table and figure of the paper's
// evaluation (§5), one benchmark per artifact, plus ablations for the
// design choices called out in DESIGN.md §6.
//
// Each sub-benchmark runs full Table 1 simulations and publishes the
// figure's quantity via b.ReportMetric, so
//
//	go test -bench=Figure -benchmem
//
// prints the same rows/series the paper reports (resp-s/job, MB/job,
// idle-%). Absolute values differ from the 2002 testbed; the shapes are
// asserted in internal/core's TestPaperShapes.
package chicsim_test

import (
	"fmt"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/experiments"
	"chicsim/internal/faults"
	"chicsim/internal/kernelbench"
	"chicsim/internal/netsim"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/rng"
	"chicsim/internal/stats"
	"chicsim/internal/trace"
	"chicsim/internal/workload"
)

// runCell executes one full-scale simulation and reports figure metrics.
func runCell(b *testing.B, cfg core.Config) core.Results {
	b.Helper()
	var last core.Results
	for i := 0; i < b.N; i++ {
		res, err := core.RunConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		last = res
	}
	b.ReportMetric(last.AvgResponseSec, "resp-s/job")
	b.ReportMetric(last.AvgDataPerJobMB, "MB/job")
	b.ReportMetric(100*last.IdleFrac, "idle-%")
	return last
}

// BenchmarkTable1Defaults runs the paper's default scenario (Table 1,
// scenario 1) with the winning algorithm pair.
func BenchmarkTable1Defaults(b *testing.B) {
	runCell(b, core.DefaultConfig())
}

// BenchmarkFigure2Popularity regenerates the dataset-popularity histogram:
// the workload generator's geometric draw over 200 datasets. Reported
// metrics give the share of requests landing in the head of the ranking.
func BenchmarkFigure2Popularity(b *testing.B) {
	cfg := core.DefaultConfig()
	var head60 float64
	for i := 0; i < b.N; i++ {
		wl, err := workload.Generate(cfg.WorkloadSpec(), rng.New(uint64(i+1)))
		if err != nil {
			b.Fatal(err)
		}
		h := wl.PopularityHistogram()
		total, head := 0, 0
		for r, c := range h {
			total += c
			if r < 60 {
				head += c
			}
		}
		head60 = 100 * float64(head) / float64(total)
	}
	b.ReportMetric(head60, "head60-%")
}

// figureCells runs each (ES, DS) cell of a figure as a sub-benchmark.
func figureCells(b *testing.B, cells []experiments.Cell, metric func(core.Results) (float64, string)) {
	base := core.DefaultConfig()
	for _, cell := range cells {
		cell := cell
		b.Run(fmt.Sprintf("%s/%s/%gMBps", cell.ES, cell.DS, cell.BandwidthMBps), func(b *testing.B) {
			cfg := base
			cfg.ES, cfg.DS, cfg.BandwidthMBps = cell.ES, cell.DS, cell.BandwidthMBps
			var v float64
			var unit string
			for i := 0; i < b.N; i++ {
				res, err := core.RunConfig(cfg)
				if err != nil {
					b.Fatal(err)
				}
				v, unit = metric(res)
			}
			b.ReportMetric(v, unit)
		})
	}
}

// BenchmarkFigure3aResponseTime regenerates Figure 3a: average response
// time per job for all 12 algorithm pairs at 10 MB/s.
func BenchmarkFigure3aResponseTime(b *testing.B) {
	figureCells(b, experiments.PaperCells(10), func(r core.Results) (float64, string) {
		return r.AvgResponseSec, "resp-s/job"
	})
}

// BenchmarkFigure3bDataTransferred regenerates Figure 3b: average data
// transferred per job for all 12 algorithm pairs at 10 MB/s.
func BenchmarkFigure3bDataTransferred(b *testing.B) {
	figureCells(b, experiments.PaperCells(10), func(r core.Results) (float64, string) {
		return r.AvgDataPerJobMB, "MB/job"
	})
}

// BenchmarkFigure4IdleTime regenerates Figure 4: percentage of time
// processors are idle (not in use or waiting for data) for all 12 pairs.
func BenchmarkFigure4IdleTime(b *testing.B) {
	figureCells(b, experiments.PaperCells(10), func(r core.Results) (float64, string) {
		return 100 * r.IdleFrac, "idle-%"
	})
}

// BenchmarkFigure5Bandwidth regenerates Figure 5: response times of the
// four ES algorithms at 10 vs 100 MB/s with DataLeastLoaded replication.
func BenchmarkFigure5Bandwidth(b *testing.B) {
	figureCells(b, experiments.Figure5Cells(), func(r core.Results) (float64, string) {
		return r.AvgResponseSec, "resp-s/job"
	})
}

// BenchmarkAblationDatasetSchedulers compares all five DS policies (the
// paper's three plus the DataCascade/DataBestClient extensions) under the
// winning JobDataPresent placement.
func BenchmarkAblationDatasetSchedulers(b *testing.B) {
	for _, dsName := range core.DatasetNames() {
		dsName := dsName
		b.Run(dsName, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ES, cfg.DS = "JobDataPresent", dsName
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationLocalSchedulers compares FIFO (the paper's LS) against
// the SJF and LIFO extensions with the winning pair.
func BenchmarkAblationLocalSchedulers(b *testing.B) {
	for _, lsName := range core.LocalNames() {
		lsName := lsName
		b.Run(lsName, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.LS = lsName
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationSharingPolicy compares the paper's equal-share link
// contention model against max-min fairness.
func BenchmarkAblationSharingPolicy(b *testing.B) {
	for _, p := range []netsim.SharingPolicy{netsim.EqualShare, netsim.MaxMinFair} {
		p := p
		b.Run(p.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ES, cfg.DS = "JobLeastLoaded", "DataDoNothing" // transfer-heavy cell
			cfg.Sharing = p
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationAdaptive compares the future-work adaptive scheduler
// against both fixed policies at slow and fast networks.
func BenchmarkAblationAdaptive(b *testing.B) {
	for _, bw := range []float64{10, 100} {
		for _, esName := range []string{"JobLocal", "JobDataPresent", "JobAdaptive"} {
			bw, esName := bw, esName
			b.Run(fmt.Sprintf("%s/%gMBps", esName, bw), func(b *testing.B) {
				cfg := core.DefaultConfig()
				cfg.ES, cfg.BandwidthMBps = esName, bw
				runCell(b, cfg)
			})
		}
	}
}

// BenchmarkAblationMultiInput exercises the multiple-input-files extension
// (paper §5.3 future work) with the winning pair.
func BenchmarkAblationMultiInput(b *testing.B) {
	for _, n := range []int{1, 2, 4} {
		n := n
		b.Run(fmt.Sprintf("inputs-%d", n), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.InputsPerJob = n
			cfg.TotalJobs = 3000 // heavier jobs; keep total work comparable
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationInformationStaleness varies the GIS snapshot age from
// oracle to five minutes.
func BenchmarkAblationInformationStaleness(b *testing.B) {
	for _, stale := range []float64{0, 30, 300} {
		stale := stale
		b.Run(fmt.Sprintf("stale-%gs", stale), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ES = "JobLeastLoaded" // most load-information-sensitive policy
			cfg.InfoStaleness = stale
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationESMapping compares the paper's one-ES-per-site mapping
// against a central scheduler and per-user schedulers (§3).
func BenchmarkAblationESMapping(b *testing.B) {
	for _, m := range []core.ESMapping{core.ESPerSite, core.ESCentral, core.ESPerUser} {
		m := m
		b.Run(m.String(), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.Mapping = m
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationBatchHeuristics compares the related-work centralized
// batch heuristics (§2: Min-Min/Max-Min level-by-level, Sufferage) against
// the paper's decoupled online winner.
func BenchmarkAblationBatchHeuristics(b *testing.B) {
	b.Run("online-JobDataPresent", func(b *testing.B) {
		runCell(b, core.DefaultConfig())
	})
	for _, name := range core.BatchNames() {
		name := name
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.BatchES = name
			cfg.BatchWindow = 120
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationUserFocus sweeps the per-user working-set extension:
// 0 = the paper's shared community popularity, 1 = fully private sets.
func BenchmarkAblationUserFocus(b *testing.B) {
	for _, focus := range []float64{0, 0.5, 1} {
		focus := focus
		b.Run(fmt.Sprintf("focus-%g", focus), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.UserFocus = focus
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationCPUHeterogeneity breaks the paper's homogeneous-
// processor assumption with increasing per-site speed spread.
func BenchmarkAblationCPUHeterogeneity(b *testing.B) {
	for _, spread := range []float64{0, 0.25, 0.5} {
		spread := spread
		b.Run(fmt.Sprintf("spread-%g", spread), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.CPUSpreadFrac = spread
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationTieredTopology compares the paper's three-level tree
// against a four-level GriPhyN-style hierarchy with provisioned tiers,
// holding site count constant at 30.
func BenchmarkAblationTieredTopology(b *testing.B) {
	b.Run("three-level", func(b *testing.B) {
		runCell(b, core.DefaultConfig())
	})
	b.Run("four-level", func(b *testing.B) {
		cfg := core.DefaultConfig()
		cfg.Tiers = []int{5, 3, 2} // 30 leaves at depth 3
		cfg.TierBandwidthsMBps = []float64{40, 20, 10}
		runCell(b, cfg)
	})
}

// BenchmarkAblationRegionalInfo compares global replica knowledge (oracle
// index) against the decentralized regional view ("each site takes
// informed decisions based on its view of the Grid").
func BenchmarkAblationRegionalInfo(b *testing.B) {
	for _, regional := range []bool{false, true} {
		regional := regional
		name := "global-index"
		if regional {
			name = "regional-view"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.RegionalInfo = regional
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationDSDeletion exercises the DS's "delete local files" role
// (§3) on a storage-pressured grid: proactive deletion vs pure LRU.
func BenchmarkAblationDSDeletion(b *testing.B) {
	for _, after := range []int{0, 2, 5} {
		after := after
		name := "lru-only"
		if after > 0 {
			name = fmt.Sprintf("delete-after-%d", after)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.StorageGB = 15 // pressure the caches
			cfg.DSDeleteAfter = after
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationOutputCost un-ignores the output costs the paper's
// §5.1 drops: output = {0, 10%, 50%} of input, shipped home.
func BenchmarkAblationOutputCost(b *testing.B) {
	for _, frac := range []float64{0, 0.1, 0.5} {
		frac := frac
		b.Run(fmt.Sprintf("output-%g", frac), func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ES = "JobLeastLoaded" // jobs run remotely, so output ships
			cfg.OutputFraction = frac
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationBackbone compares the paper's uniform connectivity
// against a 10× provisioned backbone for a transfer-heavy policy.
func BenchmarkAblationBackbone(b *testing.B) {
	for _, bb := range []float64{0, 100} {
		bb := bb
		name := "uniform"
		if bb > 0 {
			name = fmt.Sprintf("backbone-%gMBps", bb)
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ES, cfg.DS = "JobLeastLoaded", "DataDoNothing"
			cfg.BackboneMBps = bb
			runCell(b, cfg)
		})
	}
}

// BenchmarkAblationSubmissionModel compares the paper's closed model
// (immediate resubmission) against think-time and open Poisson arrivals.
func BenchmarkAblationSubmissionModel(b *testing.B) {
	models := []struct {
		name  string
		think float64
		rate  float64
	}{
		{"closed", 0, 0},
		{"think-300s", 300, 0},
		{"open-1per600s", 0, 1.0 / 600},
	}
	for _, m := range models {
		m := m
		b.Run(m.name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ThinkTimeMean = m.think
			cfg.ArrivalRate = m.rate
			runCell(b, cfg)
		})
	}
}

// BenchmarkObservability measures the cost of the probe layer on the
// default scenario: probes-off must match the uninstrumented seed hot
// path (no sampling events are scheduled and no registry exists), and
// probes-on shows the marginal cost of sampling ~129 probes every 60
// virtual seconds. Compare the pair across BENCH_*.json entries to keep
// the "zero cost when disabled" claim measurable.
func BenchmarkObservability(b *testing.B) {
	for _, interval := range []float64{0, 60} {
		interval := interval
		name := "probes-off"
		if interval > 0 {
			name = "probes-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			cfg.ObsInterval = interval
			var points int
			for i := 0; i < b.N; i++ {
				res, err := core.RunConfig(cfg)
				if err != nil {
					b.Fatal(err)
				}
				if res.Series != nil {
					points = len(res.Series.Points)
				}
			}
			b.ReportMetric(float64(points), "samples/run")
		})
	}
}

// BenchmarkTrace measures the cost of DGE event tracing on the default
// scenario: trace-off must match the uninstrumented seed hot path (the
// Discard recorder is a no-op and lifecycle events are never
// materialized), and trace-on shows the marginal cost of recording every
// submission, dispatch, transfer, and completion into an in-memory log.
// Compare the pair across BENCH_*.json entries to keep the "zero cost
// when disabled" claim measurable.
func BenchmarkTrace(b *testing.B) {
	for _, traced := range []bool{false, true} {
		traced := traced
		name := "trace-off"
		if traced {
			name = "trace-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			var events int
			for i := 0; i < b.N; i++ {
				if traced {
					log := trace.NewLog()
					cfg.Recorder = log
					if _, err := core.RunConfig(cfg); err != nil {
						b.Fatal(err)
					}
					events = log.Len()
				} else {
					cfg.Recorder = nil
					if _, err := core.RunConfig(cfg); err != nil {
						b.Fatal(err)
					}
				}
			}
			b.ReportMetric(float64(events), "events/run")
		})
	}
}

// BenchmarkRegistry measures the cost of the live metrics registry and
// watchdog on the default scenario: registry-off must match the
// uninstrumented seed hot path (every handle is a zero-value no-op and no
// obs tick is scheduled), and registry-on shows the marginal cost of
// counter hooks on the job lifecycle plus gauge syncs and invariant
// checks every 60 virtual seconds. Compare the pair across BENCH_*.json
// entries to keep the "zero cost when disabled" claim measurable.
func BenchmarkRegistry(b *testing.B) {
	for _, wired := range []bool{false, true} {
		wired := wired
		name := "registry-off"
		if wired {
			name = "registry-on"
		}
		b.Run(name, func(b *testing.B) {
			var families int
			for i := 0; i < b.N; i++ {
				cfg := core.DefaultConfig()
				if wired {
					cfg.ObsInterval = 60
					cfg.Metrics = registry.New()
					cfg.Watchdog = watchdog.Fail
				}
				if _, err := core.RunConfig(cfg); err != nil {
					b.Fatal(err)
				}
				if wired {
					families = len(cfg.Metrics.Gather())
				}
			}
			b.ReportMetric(float64(families), "families")
		})
	}
}

// BenchmarkFaults measures the cost of the fault subsystem on the
// default scenario: faults-off must match the uninstrumented seed hot
// path (no injector is attached and flow tracking stays nil), and
// faults-on shows the cost of a realistically degraded grid — site
// crashes, CE failures, and transfer aborts with recovery enabled.
// Compare the pair across BENCH_*.json entries to keep the "zero cost
// when disabled" claim measurable.
func BenchmarkFaults(b *testing.B) {
	for _, faulted := range []bool{false, true} {
		faulted := faulted
		name := "faults-off"
		if faulted {
			name = "faults-on"
		}
		b.Run(name, func(b *testing.B) {
			cfg := core.DefaultConfig()
			if faulted {
				cfg.Faults.SiteCrash = faults.Spec{MTBF: 7200, MTTR: 600}
				cfg.Faults.CEFailure = faults.Spec{MTBF: 3600, MTTR: 300}
				cfg.Faults.TransferAbort = faults.Spec{MTBF: 1800}
				cfg.Faults.RequeueOnRecovery = true
				cfg.Faults.RestoreReplicas = true
			}
			var injected int
			for i := 0; i < b.N; i++ {
				res, err := core.RunConfig(cfg)
				if err != nil {
					b.Fatal(err)
				}
				injected = res.Faults.FaultsInjected
			}
			b.ReportMetric(float64(injected), "faults/run")
		})
	}
}

// BenchmarkSim is the kernel suite's end-to-end anchor: full default-
// scenario simulations reporting events/sec (body shared with
// cmd/kernelbench, which tracks it in BENCH_kernel.json).
func BenchmarkSim(b *testing.B) { kernelbench.Sim(b) }

// BenchmarkSimScale runs the fixed 1000-site bounded-results scenario at
// three job counts (body shared with cmd/kernelbench, which tracks it in
// BENCH_scale.json). The mallocs/job metric falls toward zero as tiers
// grow because the slab job store and pooled flow records make the
// steady-state loop allocation-free; see DESIGN.md §18.
func BenchmarkSimScale(b *testing.B) {
	for _, tier := range []struct {
		name string
		jobs int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		b.Run(tier.name, kernelbench.SimScale(tier.jobs))
	}
}

// BenchmarkSimScaleRandom runs the same scenario with ES = JobRandom, so
// most jobs move data and netsim reflow dominates (body shared with
// cmd/kernelbench's SimScaleRandom tier).
func BenchmarkSimScaleRandom(b *testing.B) {
	b.Run("10k", kernelbench.SimScaleRandom(10_000))
}

// BenchmarkResultsMemory streams one million synthetic completed jobs
// through the results pipeline in each mode (body shared with
// cmd/resultsbench, which tracks it in BENCH_results_mem.json). Full
// mode's B/op and live-results-bytes grow linearly with jobs — one
// JobRecord each — while bounded mode's stay flat, the O(1) claim of
// DESIGN.md §17 as a measurement.
func BenchmarkResultsMemory(b *testing.B) {
	for _, mode := range []string{core.ResultModeFull, core.ResultModeBounded} {
		b.Run(mode, kernelbench.ResultsMemory(mode, 1_000_000))
	}
}

// BenchmarkEngineThroughput measures raw simulator performance: virtual
// events processed per wall second on the default scenario.
func BenchmarkEngineThroughput(b *testing.B) {
	cfg := core.DefaultConfig()
	var events uint64
	for i := 0; i < b.N; i++ {
		res, err := core.RunConfig(cfg)
		if err != nil {
			b.Fatal(err)
		}
		events = res.SimEvents
	}
	b.ReportMetric(float64(events), "events/run")
}

// BenchmarkWorkloadGeneration measures synthetic workload generation at
// Table 1 scale (200 datasets, 6000 jobs).
func BenchmarkWorkloadGeneration(b *testing.B) {
	cfg := core.DefaultConfig()
	spec := cfg.WorkloadSpec()
	for i := 0; i < b.N; i++ {
		if _, err := workload.Generate(spec, rng.New(uint64(i+1))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkMetricsAggregation measures Summarize over a Table 1-sized
// record set plus statistical helpers.
func BenchmarkMetricsAggregation(b *testing.B) {
	cfg := core.DefaultConfig()
	cfg.TotalJobs = 600
	sim, err := core.New(cfg)
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sim.Run(); err != nil {
		b.Fatal(err)
	}
	src := rng.New(1)
	xs := make([]float64, 6000)
	for i := range xs {
		xs[i] = src.Range(100, 5000)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = stats.Mean(xs)
		_ = stats.StdDev(xs)
	}
}
