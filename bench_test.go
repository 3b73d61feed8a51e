// Speed benchmarks for the root package: the zero-cost-when-disabled
// pairs (each observer layer off and on, on the default scenario) and
// the kernel suite's anchors, whose bodies cmd/kernelbench shares.
//
//	go test -run '$^' -bench . -benchtime 1x -count 3 .
//
// The paper's quantities (Table 1, Figures 2-5 and the design-choice
// ablations) come from the commands instead: gridsweep -list, wlgen
// -hist, gridsweep -fig 3a|3b|4|5 and gridsweep -fig ablations.
package chicsim_test

import (
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/faults"
	"chicsim/internal/kernelbench"
	"chicsim/internal/obs"
	"chicsim/internal/obs/registry"
	"chicsim/internal/obs/watchdog"
	"chicsim/internal/trace"
)

// BenchmarkObservability measures the cost of the probe layer on the
// default scenario: probes-off must match the uninstrumented seed hot
// path (no sampling events are scheduled and no sink is called), and
// probes-on shows the marginal cost of sampling ~129 probes every 60
// virtual seconds into an in-memory obs.Series. Compare the pair across
// BENCH_*.json entries to keep the "zero cost when disabled" claim
// measurable.
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
				series := new(obs.Series)
				cfg.ObsSink = series
				if _, err := core.RunConfig(cfg); err != nil {
					b.Fatal(err)
				}
				points = len(series.Points)
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
// cmd/kernelbench's ResultsMemory rows, which CI tracks in
// BENCH_results_mem.json via -only ResultsMemory). Full
// mode's B/op and live-results-bytes grow linearly with jobs — one
// 8-byte response time each — while bounded mode's stay flat, the O(1)
// claim of DESIGN.md §17 as a measurement.
func BenchmarkResultsMemory(b *testing.B) {
	for _, mode := range []string{core.ResultModeFull, core.ResultModeBounded} {
		b.Run(mode, kernelbench.ResultsMemory(mode, 1_000_000))
	}
}
