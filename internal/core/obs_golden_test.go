package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"flag"
	"os"
	"path/filepath"
	"testing"

	"chicsim/internal/core"
	"chicsim/internal/faults"
	"chicsim/internal/obs/registry"
	"chicsim/internal/report"
)

var updateObsGolden = flag.Bool("update-obs-golden", false,
	"rewrite testdata/obs_golden.json with hashes from the current observation outputs")

// TestObservationGolden pins, byte for byte, the two observation outputs
// of a run: the Prometheus exposition text of Config.Metrics after Run
// (family order, help strings, every counter, gauge and histogram) and
// the probe series as report.SeriesCSV renders it. It covers a healthy
// and a faulted (site crashes and CE failures) control-plane run, and a
// JobRandom run cut by MaxTime while transfers are in flight, whose
// closing publish pins the link and data-wait gauges at nonzero values.
// Regenerate with
//
//	go test ./internal/core -run TestObservationGolden -update-obs-golden
//
// only when a change to what the run observes is intended and reviewed.
func TestObservationGolden(t *testing.T) {
	got := make(map[string]string)
	for _, name := range []string{"healthy", "faulted", "cut"} {
		cfg := core.ControlPlaneCfg(3)
		switch name {
		case "faulted":
			cfg.Faults.SiteCrash = faults.Spec{MTBF: 1000, MTTR: 500}
			cfg.Faults.CEFailure = faults.Spec{MTBF: 1000, MTTR: 600}
			cfg.Faults.MaxRetries = 1
		case "cut":
			cfg.ES = "JobRandom"
			cfg.MaxTime = 2345
		}
		reg := registry.New()
		cfg.Metrics = reg
		r, err := core.RunConfig(cfg)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if name == "faulted" && (r.Faults.SiteCrashes == 0 || r.Faults.CEFailures == 0) {
			t.Fatalf("faulted run injected %+v; case exercises nothing", r.Faults)
		}
		if name == "cut" {
			for _, g := range []string{"sim_link_load_max_frac", "sim_link_backlog_bytes", "sim_jobs_data_waiting"} {
				if v, _ := reg.Value(g); v <= 0 {
					t.Fatalf("cut run ended with %s = %v; case exercises nothing", g, v)
				}
			}
		}
		var prom, csv bytes.Buffer
		if err := registry.WritePrometheus(&prom, reg.Gather()); err != nil {
			t.Fatal(err)
		}
		report.SeriesCSV(&csv, r.Series)
		got[name+"/prometheus"] = sha256Hex(prom.Bytes())
		got[name+"/series_csv"] = sha256Hex(csv.Bytes())
	}

	path := filepath.Join("testdata", "obs_golden.json")
	if *updateObsGolden {
		buf, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append(buf, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s with %d hashes", path, len(got))
		return
	}
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update-obs-golden): %v", err)
	}
	want := make(map[string]string)
	if err := json.Unmarshal(buf, &want); err != nil {
		t.Fatalf("parse golden: %v", err)
	}
	if len(want) != len(got) {
		t.Errorf("golden has %d outputs, run produced %d", len(want), len(got))
	}
	for name, h := range got {
		if want[name] != h {
			t.Errorf("%s: hash %s, want %s — the run's observation output changed", name, h, want[name])
		}
	}
}

func sha256Hex(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
