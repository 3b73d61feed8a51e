package experiments

import (
	"encoding/json"
	"strings"
	"testing"

	"chicsim/internal/core"
)

func TestSensitivityCells(t *testing.T) {
	cells := SensitivityCells()
	if len(cells) != 62 {
		t.Fatalf("cells = %d, want 62 (31 sweep points × 2 pairs)", len(cells))
	}
	seen := map[Cell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Fatalf("duplicate cell %v", c)
		}
		seen[c] = true
		if err := c.Validate(); err != nil {
			t.Fatal(err)
		}
	}
	first := Cell{ES: "JobDataPresent", DS: "DataLeastLoaded", BandwidthMBps: 10, Param: "storage", Value: 10}
	if cells[0] != first {
		t.Fatalf("first cell = %+v, want %+v", cells[0], first)
	}
}

// TestParamCellMatchesSetter pins every sensitivity parameter to the
// Config field it must set: a run of the Param cell has to produce the
// same Results, byte for byte, as a run whose Base had that field set by
// hand. The expectations are written out here rather than read from the
// table, so a setter that drifts to another field (or a parameter added
// without an expectation) fails.
func TestParamCellMatchesSetter(t *testing.T) {
	want := map[string]func(*core.Config, float64){
		"storage":      func(c *core.Config, v float64) { c.StorageGB = v },
		"geomp":        func(c *core.Config, v float64) { c.GeomP = v },
		"ds-threshold": func(c *core.Config, v float64) { c.DSThreshold = int(v) },
		"ds-interval":  func(c *core.Config, v float64) { c.DSInterval = v },
		"staleness":    func(c *core.Config, v float64) { c.InfoStaleness = v },
		"bandwidth":    func(c *core.Config, v float64) { c.BandwidthMBps = v },
	}
	base := tinyBase()
	covered := map[string]bool{}
	for _, c := range SensitivityCells() {
		if c.ES != "JobDataPresent" {
			continue
		}
		set, ok := want[c.Param]
		if !ok {
			t.Fatalf("parameter %q has no expectation in this test", c.Param)
		}
		covered[c.Param] = true
		// The Param cell keeps the base bandwidth, so the bandwidth
		// sweep only passes if Run applies the parameter after the
		// cell's own bandwidth.
		c.BandwidthMBps = base.BandwidthMBps
		got := Run(Campaign{Base: base, Cells: []Cell{c}, Seeds: []uint64{1}, Workers: 1})

		ref := base
		set(&ref, c.Value)
		plain := Cell{ES: c.ES, DS: c.DS, BandwidthMBps: ref.BandwidthMBps}
		exp := Run(Campaign{Base: ref, Cells: []Cell{plain}, Seeds: []uint64{1}, Workers: 1})

		if got[0].Err != nil || exp[0].Err != nil {
			t.Fatalf("%v: errors %v / %v", c, got[0].Err, exp[0].Err)
		}
		gj, _ := json.Marshal(got[0].Runs)
		ej, _ := json.Marshal(exp[0].Runs)
		if string(gj) != string(ej) {
			t.Errorf("%v: Results differ from a run with the field set on Base", c)
		}
	}
	if len(covered) != len(want) {
		t.Fatalf("swept parameters %v, want all of %d", covered, len(want))
	}
}

func TestRunRecordsUnknownParam(t *testing.T) {
	cells := []Cell{
		{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10, Param: "no-such-param", Value: 1},
		{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10},
	}
	res := Run(Campaign{Base: tinyBase(), Cells: cells, Seeds: []uint64{1, 2}, Workers: 2})
	if res[0].Err == nil || !strings.Contains(res[0].Err.Error(), `unknown parameter "no-such-param"`) {
		t.Fatalf("unknown parameter: Err = %v", res[0].Err)
	}
	if len(res[0].Runs) != 0 {
		t.Fatalf("unknown parameter ran %d simulations", len(res[0].Runs))
	}
	if res[1].Err != nil || len(res[1].Runs) != 2 {
		t.Fatalf("neighbouring cell: Err = %v, runs = %d", res[1].Err, len(res[1].Runs))
	}
}

// TestCellEncodingWithoutParam pins the wire form of a cell with no
// sensitivity parameter to what it was before Param existed, so older
// JSONL streams, fabric journals and campaign IDs stay valid.
func TestCellEncodingWithoutParam(t *testing.T) {
	c := Cell{ES: "JobLocal", DS: "DataDoNothing", BandwidthMBps: 10, SiteMTBF: 3600}
	js, err := json.Marshal(c)
	if err != nil {
		t.Fatal(err)
	}
	if want := `{"ES":"JobLocal","DS":"DataDoNothing","BandwidthMBps":10,"SiteMTBF":3600}`; string(js) != want {
		t.Fatalf("JSON = %s, want %s", js, want)
	}
	if want := "JobLocal+DataDoNothing@10MB/s/mtbf=3600s"; c.String() != want {
		t.Fatalf("String = %q, want %q", c.String(), want)
	}
	c.SiteMTBF, c.Param, c.Value = 0, "geomp", 0.2
	if want := "JobLocal+DataDoNothing@10MB/s/geomp=0.2"; c.String() != want {
		t.Fatalf("String = %q, want %q", c.String(), want)
	}
}
