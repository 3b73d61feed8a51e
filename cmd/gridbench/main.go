// Command gridbench is ChicSim-Go's benchmark. It runs three workloads that
// each put a different simulator layer under load, reports simulated jobs
// per wall-clock second with set-up time and allocation per job, and
// explains each workload's cost per layer from one traced run: a CPU
// profile charged to modules, ES decision timings from a wall-stamping
// trace recorder, and an exact replay of the run's traffic through a
// fresh netsim. It checks its outputs as it goes and fails when a run is
// wrong.
//
// The package is a module of its own so that the benchmark builds from
// source beside the code it measures. From the repository root:
//
//	bash cmd/gridbench/run.sh -o a.json                   # every workload, 3 reps + 1 traced
//	bash cmd/gridbench/run.sh -compare a.json b.json      # do two result files agree?
//	bash cmd/gridbench/run.sh --workload scale-random-100k --seed 3 --seconds 20 --trace 0
//
// The last form runs one workload at least 3 times, more while the
// repetitions fit in --seconds, and prints one JSON line: the end-to-end
// metrics with --trace 0, the per-layer ones with --trace 1.
//
// A run with seed s runs simulation seeds (s-1)*n+1 to s*n, where n is the
// number of simulations in one repetition (30 per cell for paper-fig3), so
// runs with different seeds share no input.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"runtime"
	"strings"
	"time"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("gridbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	seed := fs.Uint64("seed", 1, "run seed: a workload of n simulations per repetition runs seeds (seed-1)*n+1..seed*n (paper-fig3: 1..30 per cell at seed 1)")
	out := fs.String("o", "", "also write the results as JSON to this file")
	compare := fs.Bool("compare", false, "compare two result files given as arguments and exit 1 if they disagree")
	name := fs.String("workload", "", "run only this workload and print one JSON line")
	seconds := fs.Float64("seconds", 20, "with -workload: repeat the workload (at least 3 times) while the repetitions fit in this many seconds")
	traced := fs.Int("trace", 0, "with -workload: 0 reports end-to-end metrics, 1 the per-layer metrics of a traced run")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	switch {
	case *compare:
		return runCompare(fs.Args(), stdout, stderr)
	case *name != "":
		return runOne(*name, *seed, *seconds, *traced, stdout, stderr)
	}
	return runAll(*seed, *out, stdout, stderr)
}

// minReps is the least number of untraced repetitions per workload. On a
// shared host, a lap's fastest time over two repetitions still spread
// 15-25% between runs, over three 8-13%.
const minReps = 3

// runOne measures one workload and prints one JSON line, the form a
// harness comparing two builds reads.
func runOne(name string, seed uint64, seconds float64, traced int, stdout, stderr io.Writer) int {
	w, ok := workloadByName(name)
	if !ok {
		fmt.Fprintf(stderr, "gridbench: unknown workload %q (have %s)\n", name, strings.Join(workloadNames(), ", "))
		return 2
	}
	if traced != 0 && traced != 1 {
		fmt.Fprintf(stderr, "gridbench: -trace %d (want 0 or 1)\n", traced)
		return 2
	}
	o := options{seed: seed, shrink: 1, reps: minReps, seconds: seconds, setup: traced == 0, trace: traced == 1}
	res := measure(w, o, stderr)
	for _, c := range res.Checks {
		if !c.OK {
			fmt.Fprintf(stderr, "gridbench: %s: check %s failed: %s\n", name, c.Name, c.Detail)
		}
	}
	if err := printLine(stdout, res, traced == 1); err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", err)
		return 1
	}
	return 0
}

// printLine writes the one-line JSON result: the end-to-end metrics, or
// the per-layer ones when traced.
func printLine(w io.Writer, res result, traced bool) error {
	defs, stats := endToEndDefs, res.EndToEnd
	if traced {
		defs, stats = perLayerDefs, res.PerLayer
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.correct(), res.Attempted, res.Failed, map[string]value{}}
	for _, d := range defs {
		line.Metrics[d.name] = value{stats[d.name].Value, d.unit}
	}
	buf, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(buf))
	return err
}

// report is the JSON file runAll writes and -compare reads.
type report struct {
	Provenance provenance `json:"provenance"`
	Workloads  []result   `json:"workloads"`
}

// runAll runs every workload minReps times untraced plus once traced,
// prints every metric, and exits 1 if any check failed.
func runAll(seed uint64, out string, stdout, stderr io.Writer) int {
	rep := report{Provenance: provenanceOf(seed, minReps)}
	o := options{seed: seed, shrink: 1, reps: minReps, setup: true, trace: true}
	for _, w := range workloads {
		rep.Workloads = append(rep.Workloads, measure(w, o, stderr))
	}
	printReport(stdout, rep)
	code := 0
	for _, r := range rep.Workloads {
		if !r.correct() {
			code = 1
		}
	}
	if out != "" {
		buf, err := json.MarshalIndent(rep, "", "  ")
		if err == nil {
			err = os.WriteFile(out, append(buf, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintf(stderr, "gridbench: writing %s: %v\n", out, err)
			return 1
		}
	}
	return code
}

func printReport(w io.Writer, rep report) {
	p := rep.Provenance
	fmt.Fprintf(w, "gridbench %s | %s %s/%s | %s | nproc %d, GOMAXPROCS %d | seed %d, %d reps\n",
		p.GitDescribe, p.GoVersion, p.GOOS, p.GOARCH, p.CPUModel, p.NumCPU, p.GOMAXPROCS, p.Seed, p.Reps)
	for _, r := range rep.Workloads {
		fmt.Fprintf(w, "\n== %s: %d reps, %d runs attempted, %d failed\n", r.Name, r.Reps, r.Attempted, r.Failed)
		fmt.Fprintf(w, "   %s\n   results digest %s\n", r.Why, r.Digest)
		for _, c := range r.Checks {
			status := "ok"
			if !c.OK {
				status = "FAILED"
			}
			fmt.Fprintf(w, "   check %-14s %-6s %s\n", c.Name, status, c.Detail)
		}
		fmt.Fprintln(w, "   end-to-end, tracing off [min, max over reps or set-up passes]:")
		for _, d := range append(endToEndDefs, metricDef{failedRunsFrac, "ratio"}) {
			s := r.EndToEnd[d.name]
			fmt.Fprintf(w, "     %-34s %14.6g %-6s [%.6g, %.6g]\n", d.name, s.Value, d.unit, s.Min, s.Max)
		}
		fmt.Fprintln(w, "   per-layer, from the traced rep (runtime.* from the untraced reps):")
		for _, d := range perLayerDefs {
			fmt.Fprintf(w, "     %-34s %14.6g %s\n", d.name, r.PerLayer[d.name].Value, d.unit)
		}
	}
}

// provenance is the machine and build every number was measured on.
type provenance struct {
	GoVersion   string `json:"go_version"`
	GOOS        string `json:"goos"`
	GOARCH      string `json:"goarch"`
	NumCPU      int    `json:"nproc"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	CPUModel    string `json:"cpu_model"`
	GitDescribe string `json:"git_describe"`
	Seed        uint64 `json:"seed"`
	Reps        int    `json:"reps"`
	Time        string `json:"time"`
}

func provenanceOf(seed uint64, reps int) provenance {
	p := provenance{
		GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
		NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPUModel: "unknown", GitDescribe: "unknown",
		Seed: seed, Reps: reps, Time: time.Now().UTC().Format(time.RFC3339),
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				p.CPUModel = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := exec.Command("git", "describe", "--always", "--dirty", "--tags").Output(); err == nil {
		p.GitDescribe = strings.TrimSpace(string(b))
	}
	return p
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return names
}
