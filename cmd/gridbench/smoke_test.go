package main

import (
	"bytes"
	"encoding/json"
	"io"
	"regexp"
	"strings"
	"testing"
)

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

// TestSmokeAllWorkloads runs every workload shrunk 100x (1000x with
// -short) through set-up, an untraced repetition and a traced one, and
// checks that every metric BENCHMARK.json names is emitted with its unit.
func TestSmokeAllWorkloads(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	if got, want := len(def.Workloads), len(workloads); got != want {
		t.Fatalf("BENCHMARK.json has %d workloads, the program %d", got, want)
	}
	for i, w := range def.Workloads {
		if w.Name != workloads[i].name || w.Why != workloads[i].why {
			t.Errorf("workload %d: BENCHMARK.json says %q (%s), the program %q (%s)",
				i, w.Name, w.Why, workloads[i].name, workloads[i].why)
		}
	}
	units := map[string]string{}
	for _, d := range append(append([]metricDef(nil), endToEndDefs...), perLayerDefs...) {
		units[d.name] = d.unit
	}
	for _, m := range def.EndToEnd {
		if units[m.Name] != m.Unit {
			t.Errorf("end-to-end %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, units[m.Name])
		}
	}
	for _, m := range def.PerLayer {
		if units[m.Name] != m.Unit {
			t.Errorf("per-layer %s: BENCHMARK.json unit %q, program %q", m.Name, m.Unit, units[m.Name])
		}
	}

	shrink := 100
	if testing.Short() {
		shrink = 1000
	}
	for _, w := range workloads {
		res := measure(w, options{seed: 1, shrink: shrink, reps: 1, setup: true, trace: true}, io.Discard)
		if !res.correct() {
			t.Errorf("%s: not correct: %d of %d runs failed, checks %+v", w.name, res.Failed, res.Attempted, res.Checks)
		}
		for _, m := range def.EndToEnd {
			checkEmitted(t, w.name, m.Name, m.Unit, res.EndToEnd)
		}
		for _, m := range def.PerLayer {
			checkEmitted(t, w.name, m.Name, m.Unit, res.PerLayer)
		}
		if v := res.EndToEnd["jobs_per_s"].Value; v <= 0 {
			t.Errorf("%s: jobs_per_s = %v", w.name, v)
		}

		for traced, defs := range [][]metricDef{endToEndDefs, perLayerDefs} {
			var out bytes.Buffer
			if err := printLine(&out, res, traced == 1); err != nil {
				t.Fatal(err)
			}
			if strings.Count(out.String(), "\n") != 1 {
				t.Fatalf("%s: result line is not one line: %q", w.name, out.String())
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s: result line keys are wrong: %s", w.name, out.String())
			}
			var metrics map[string]struct {
				Value *float64 `json:"value"`
				Unit  string   `json:"unit"`
			}
			if err := json.Unmarshal(line["metrics"], &metrics); err != nil {
				t.Fatal(err)
			}
			if len(metrics) != len(defs) {
				t.Errorf("%s: %d metrics in the result line, want %d", w.name, len(metrics), len(defs))
			}
			for _, d := range defs {
				if m, ok := metrics[d.name]; !ok || m.Value == nil || m.Unit != d.unit {
					t.Errorf("%s: result line metric %s = %+v", w.name, d.name, m)
				}
			}
		}
	}
}

func checkEmitted(t *testing.T, workload, name, unit string, got map[string]stat) {
	t.Helper()
	if !metricName.MatchString(name) {
		t.Errorf("metric name %q does not match %v", name, metricName)
	}
	s, ok := got[name]
	if !ok {
		t.Errorf("%s: metric %s not emitted", workload, name)
		return
	}
	if s.Unit != unit {
		t.Errorf("%s: metric %s has unit %q, want %q", workload, name, s.Unit, unit)
	}
}

func TestRunRejectsBadArguments(t *testing.T) {
	for _, args := range [][]string{
		{"--workload", "no-such-workload", "--seconds", "1"},
		{"--workload", "paper-fig3", "--trace", "2"},
		{"-compare", "only-one.json"},
		{"-no-such-flag"},
	} {
		var stdout, stderr bytes.Buffer
		if code := run(args, &stdout, &stderr); code == 0 || stdout.Len() != 0 {
			t.Errorf("run(%q) = %d with stdout %q; want a non-zero exit and no result", args, code, stdout.String())
		}
	}
}

func TestCompareReports(t *testing.T) {
	def, err := loadDefinition()
	if err != nil {
		t.Fatal(err)
	}
	mk := func(scale, failed float64) report {
		var r report
		for _, w := range def.Workloads {
			res := result{Name: w.Name, EndToEnd: map[string]stat{failedRunsFrac: {Value: failed}}}
			for _, m := range def.EndToEnd {
				res.EndToEnd[m.Name] = stat{Value: 100 * scale, Unit: m.Unit}
			}
			r.Workloads = append(r.Workloads, res)
		}
		return r
	}
	minBound := 1.0
	for _, m := range def.EndToEnd {
		minBound = min(minBound, m.Bound)
	}
	a := mk(1, 0)
	if rows, ok := compareReports(def, a, mk(1+minBound/2, 0)); !ok {
		t.Errorf("values within every bound disagree:\n%s", strings.Join(rows, "\n"))
	}
	if _, ok := compareReports(def, a, mk(1-minBound*1.5, 0)); ok {
		t.Error("a drop beyond the tightest bound agrees")
	}
	if _, ok := compareReports(def, a, mk(1, 0.01)); ok {
		t.Error("failed runs agree")
	}
	short := mk(1, 0)
	short.Workloads = short.Workloads[1:]
	if _, ok := compareReports(def, a, short); ok {
		t.Error("a missing workload agrees")
	}
}
