package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
)

// definition is the part of BENCHMARK.json the program reads: the
// workload names and the end-to-end metrics with their regression bounds.
type definition struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name  string  `json:"name"`
		Unit  string  `json:"unit"`
		Bound float64 `json:"bound"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// loadDefinition reads the BENCHMARK.json nearest to the working
// directory, looking in it and then in each parent.
func loadDefinition() (definition, error) {
	var def definition
	dir, err := os.Getwd()
	if err != nil {
		return def, err
	}
	for {
		buf, err := os.ReadFile(filepath.Join(dir, "BENCHMARK.json"))
		if err == nil {
			if err := json.Unmarshal(buf, &def); err != nil {
				return def, fmt.Errorf("%s: %w", filepath.Join(dir, "BENCHMARK.json"), err)
			}
			return def, nil
		}
		if !errors.Is(err, os.ErrNotExist) {
			return def, err
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return def, errors.New("no BENCHMARK.json in the working directory or its parents")
		}
		dir = parent
	}
}

func loadReport(path string) (report, error) {
	var r report
	buf, err := os.ReadFile(path)
	if err != nil {
		return r, err
	}
	if err := json.Unmarshal(buf, &r); err != nil {
		return r, fmt.Errorf("%s: %w", path, err)
	}
	return r, nil
}

// runCompare checks that two result files agree: on every workload, every
// end-to-end metric differs by no more than its BENCHMARK.json bound (as a
// share of the first file's value, either way) and no run failed.
func runCompare(args []string, stdout, stderr io.Writer) int {
	if len(args) != 2 {
		fmt.Fprintln(stderr, "gridbench: -compare takes two result files: gridbench -compare a.json b.json")
		return 2
	}
	def, err := loadDefinition()
	if err != nil {
		fmt.Fprintf(stderr, "gridbench: %v\n", err)
		return 2
	}
	var reps [2]report
	for i, path := range args {
		if reps[i], err = loadReport(path); err != nil {
			fmt.Fprintf(stderr, "gridbench: %v\n", err)
			return 2
		}
	}
	rows, agree := compareReports(def, reps[0], reps[1])
	fmt.Fprintf(stdout, "%-22s %-20s %14s %14s %8s %6s\n", "workload", "metric", "a", "b", "delta", "bound")
	for _, r := range rows {
		fmt.Fprintln(stdout, r)
	}
	if !agree {
		fmt.Fprintln(stdout, "DISAGREE")
		return 1
	}
	fmt.Fprintln(stdout, "agree")
	return 0
}

// compareReports returns one printable row per workload and metric, and
// whether every row agrees.
func compareReports(def definition, a, b report) ([]string, bool) {
	byName := func(r report, name string) *result {
		for i := range r.Workloads {
			if r.Workloads[i].Name == name {
				return &r.Workloads[i]
			}
		}
		return nil
	}
	var rows []string
	agree := true
	for _, w := range def.Workloads {
		wa, wb := byName(a, w.Name), byName(b, w.Name)
		if wa == nil || wb == nil {
			rows = append(rows, fmt.Sprintf("%-22s missing from a result file", w.Name))
			agree = false
			continue
		}
		for _, m := range def.EndToEnd {
			sa, okA := wa.EndToEnd[m.Name]
			sb, okB := wb.EndToEnd[m.Name]
			if !okA || !okB || sa.Value == 0 {
				rows = append(rows, fmt.Sprintf("%-22s %-20s missing or zero", w.Name, m.Name))
				agree = false
				continue
			}
			delta := (sb.Value - sa.Value) / sa.Value
			verdict := ""
			if math.Abs(delta) > m.Bound {
				verdict = "  DISAGREE"
				agree = false
			}
			rows = append(rows, fmt.Sprintf("%-22s %-20s %14.6g %14.6g %+7.1f%% %5.0f%%%s",
				w.Name, m.Name, sa.Value, sb.Value, 100*delta, 100*m.Bound, verdict))
		}
		fa, fb := wa.EndToEnd[failedRunsFrac].Value, wb.EndToEnd[failedRunsFrac].Value
		verdict := ""
		if fa != 0 || fb != 0 {
			verdict = "  DISAGREE (must be 0)"
			agree = false
		}
		rows = append(rows, fmt.Sprintf("%-22s %-20s %14.6g %14.6g %8s %6s%s", w.Name, failedRunsFrac, fa, fb, "", "0", verdict))
	}
	return rows, agree
}
