// Command kernelbench runs the benchmark suite (the same bodies `go test
// -bench` exercises in internal/desim, internal/netsim and the repo root:
// the simulation kernel, the scale tiers and the results pipeline's
// memory) through testing.Benchmark and writes BENCH_kernel.json, so the
// performance trajectory is tracked across PRs without parsing go-test
// output.
//
//	kernelbench -o BENCH_kernel.json          # run and record
//	kernelbench -prev BENCH_kernel.json       # run, diff against a baseline
//	kernelbench -prev ... -gate 15            # also fail on >15% ns/op regressions
//	kernelbench -only SimScale                # run one sub-suite (regexp match)
//	kernelbench -skip 'SimScale|ResultsMemory' # everything else
//	kernelbench -only ResultsMemory -prev bench/BENCH_results_mem_baseline.json
//
// With -prev, a benchstat-style delta table is printed and each result
// carries baseline_ns_per_op/speedup fields, making regressions visible
// in both CI logs and the committed artifact. With -gate N, any benchmark
// whose ns/op regressed more than N% against the baseline fails the run
// with exit status 1 — the soft regression gate CI applies (override: the
// bench-regression-ok PR label, see DESIGN.md §18).
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"regexp"
	"runtime"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/kernelbench"
	"chicsim/internal/netsim"
	"chicsim/internal/obs"
)

type result struct {
	Name        string             `json:"name"`
	NsPerOp     float64            `json:"ns_per_op"`
	AllocsPerOp int64              `json:"allocs_per_op"`
	BytesPerOp  int64              `json:"bytes_per_op"`
	Iterations  int                `json:"iterations"`
	Extra       map[string]float64 `json:"extra,omitempty"`

	// Filled when -prev supplies a baseline containing the same name.
	BaselineNsPerOp float64 `json:"baseline_ns_per_op,omitempty"`
	Speedup         float64 `json:"speedup,omitempty"`
}

type report struct {
	Suite     string   `json:"suite"`
	GoVersion string   `json:"go_version"`
	GOARCH    string   `json:"goarch"`
	Results   []result `json:"results"`
}

type bench struct {
	name string
	body func(*testing.B)
}

// suite enumerates the kernel benchmarks in a fixed order. Flow and job
// counts mirror the go-test wrappers so names line up across both
// harnesses.
func suite() []bench {
	out := []bench{
		{"EngineChurn", kernelbench.EngineChurn},
		{"EngineStep", kernelbench.EngineStep},
	}
	for _, p := range []struct {
		label  string
		policy netsim.SharingPolicy
	}{{"ReflowEqualShare", netsim.EqualShare}, {"ReflowMaxMin", netsim.MaxMinFair}} {
		for _, flows := range []int{10, 100, 1000} {
			out = append(out, bench{fmt.Sprintf("%s/flows=%d", p.label, flows), kernelbench.Reflow(p.policy, flows)})
		}
	}
	// Removals from the middle of a scale-sized flow population.
	out = append(out, bench{"ReflowChurn/flows=1600", kernelbench.ReflowChurn(1600)})
	// A site's per-file state: hits, fetches, LRU evictions, drains.
	out = append(out, bench{"SiteAccess", kernelbench.SiteAccess})
	// The stale GIS's snapshot refresh and least-loaded holders memo.
	out = append(out, bench{"GISLeastLoaded", kernelbench.GISLeastLoaded})
	out = append(out, bench{"Sim", kernelbench.Sim})
	for _, tier := range []struct {
		name string
		jobs int
	}{{"10k", 10_000}, {"100k", 100_000}, {"1M", 1_000_000}} {
		out = append(out, bench{"SimScale/" + tier.name, kernelbench.SimScale(tier.jobs)})
	}
	// The data-moving tier: netsim carries it, where SimScale barely
	// starts a transfer.
	out = append(out, bench{"SimScaleRandom/10k", kernelbench.SimScaleRandom(10_000)})
	// The ScaleConfig workload alone, generated as core.New generates it.
	out = append(out, bench{"WorkloadGenerate/1M", kernelbench.WorkloadGenerate(1_000_000)})
	// The results pipeline alone, a million synthetic jobs per mode: the
	// live-results-bytes column is bounded mode's O(1)-memory claim.
	for _, mode := range []string{core.ResultModeFull, core.ResultModeBounded} {
		out = append(out, bench{"ResultsMemory/" + mode, kernelbench.ResultsMemory(mode, 1_000_000)})
	}
	return out
}

func main() {
	outPath := flag.String("o", "BENCH_kernel.json", "output JSON path")
	prevPath := flag.String("prev", "", "baseline BENCH_kernel.json to diff against")
	only := flag.String("only", "", "run only benchmarks whose name matches this regular expression")
	skip := flag.String("skip", "", "skip benchmarks whose name matches this regular expression")
	gate := flag.Float64("gate", 0, "with -prev: exit 1 if any ns/op regresses more than this percent (0 disables)")
	obs.ParseFlags(flag.CommandLine, os.Args[1:])

	onlyRE, err := regexp.Compile(*only)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: -only: %v\n", err)
		os.Exit(2)
	}
	skipRE, err := regexp.Compile(*skip)
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: -skip: %v\n", err)
		os.Exit(2)
	}

	var baseline map[string]result
	if *prevPath != "" {
		buf, err := os.ReadFile(*prevPath)
		if err != nil {
			fmt.Fprintf(os.Stderr, "kernelbench: read baseline: %v\n", err)
			os.Exit(1)
		}
		var prev report
		if err := json.Unmarshal(buf, &prev); err != nil {
			fmt.Fprintf(os.Stderr, "kernelbench: parse baseline: %v\n", err)
			os.Exit(1)
		}
		baseline = make(map[string]result, len(prev.Results))
		for _, r := range prev.Results {
			baseline[r.Name] = r
		}
	}

	rep := report{Suite: "kernel", GoVersion: runtime.Version(), GOARCH: runtime.GOARCH}
	for _, bm := range suite() {
		if !onlyRE.MatchString(bm.name) || (*skip != "" && skipRE.MatchString(bm.name)) {
			continue
		}
		br := testing.Benchmark(bm.body)
		r := result{
			Name:        bm.name,
			NsPerOp:     float64(br.T.Nanoseconds()) / float64(br.N),
			AllocsPerOp: br.AllocsPerOp(),
			BytesPerOp:  br.AllocedBytesPerOp(),
			Iterations:  br.N,
			Extra:       br.Extra,
		}
		if base, ok := baseline[bm.name]; ok && base.NsPerOp > 0 && r.NsPerOp > 0 {
			r.BaselineNsPerOp = base.NsPerOp
			r.Speedup = base.NsPerOp / r.NsPerOp
		}
		rep.Results = append(rep.Results, r)
		fmt.Printf("%-28s %12.1f ns/op %8d B/op %6d allocs/op", r.Name,
			r.NsPerOp, r.BytesPerOp, r.AllocsPerOp)
		for k, v := range r.Extra {
			fmt.Printf("  %12.4g %s", v, k)
		}
		fmt.Println()
	}

	var regressions []string
	if baseline != nil {
		fmt.Printf("\n%-28s %14s %14s %9s\n", "name", "old ns/op", "new ns/op", "delta")
		for _, r := range rep.Results {
			if r.BaselineNsPerOp == 0 {
				continue
			}
			delta := (r.NsPerOp - r.BaselineNsPerOp) / r.BaselineNsPerOp * 100
			fmt.Printf("%-28s %14.1f %14.1f %+8.1f%%\n",
				r.Name, r.BaselineNsPerOp, r.NsPerOp, delta)
			if *gate > 0 && delta > *gate {
				regressions = append(regressions,
					fmt.Sprintf("%s: %.1f -> %.1f ns/op (%+.1f%% > %.0f%%)",
						r.Name, r.BaselineNsPerOp, r.NsPerOp, delta, *gate))
			}
		}
	}

	buf, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: marshal: %v\n", err)
		os.Exit(1)
	}
	if err := os.WriteFile(*outPath, append(buf, '\n'), 0o644); err != nil {
		fmt.Fprintf(os.Stderr, "kernelbench: write %s: %v\n", *outPath, err)
		os.Exit(1)
	}
	fmt.Printf("\nwrote %s (%d benchmarks)\n", *outPath, len(rep.Results))

	if len(regressions) > 0 {
		fmt.Fprintf(os.Stderr, "\nkernelbench: %d benchmark(s) regressed past the %.0f%% gate:\n", len(regressions), *gate)
		for _, r := range regressions {
			fmt.Fprintf(os.Stderr, "  %s\n", r)
		}
		fmt.Fprintln(os.Stderr, "If the slowdown is intended and justified, apply the bench-regression-ok label (see DESIGN.md §18) or refresh the committed baseline.")
		os.Exit(1)
	}
}
