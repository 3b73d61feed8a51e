package experiments

import (
	"encoding/json"
	"reflect"
	"slices"
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
		{ES: "JobRandom", DS: "DataRandom", BandwidthMBps: 10, Param: "ls", Level: "no-such-level"},
	}
	res := Run(Campaign{Base: tinyBase(), Cells: cells, Seeds: []uint64{1, 2}, Workers: 2})
	for i, want := range map[int]string{
		0: `unknown parameter "no-such-param"`,
		2: `unknown level "no-such-level" of parameter "ls"`,
	} {
		if res[i].Err == nil || !strings.Contains(res[i].Err.Error(), want) {
			t.Fatalf("%v: Err = %v, want %s", cells[i], res[i].Err, want)
		}
		if len(res[i].Runs) != 0 {
			t.Fatalf("%v ran %d simulations", cells[i], len(res[i].Runs))
		}
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
	c.Param, c.Value, c.Level = "ls", 0, "SJF"
	if want := "JobLocal+DataDoNothing@10MB/s/ls=SJF"; c.String() != want {
		t.Fatalf("String = %q, want %q", c.String(), want)
	}
}

// TestAblationArms pins every ablation to the configs it runs. Its
// control's config is written out here, and its arms may differ from the
// control only in the Config fields the study declares, each of which
// some arm must vary. A setter that drops a companion setting
// (TotalJobs on the multi-input arms, BatchWindow on the batch arms) or
// touches a field the study does not vary fails.
func TestAblationArms(t *testing.T) {
	def := func(*core.Config) {}
	remote := func(c *core.Config) { c.ES = "JobLeastLoaded" }
	heavy := func(c *core.Config) { c.ES, c.DS = "JobLeastLoaded", "DataDoNothing" }
	random := func(c *core.Config) { c.ES, c.DS = "JobRandom", "DataRandom" }
	contended := func(c *core.Config) { c.InfoStaleness = 120 }
	contendedCrashes := func(c *core.Config) {
		c.InfoStaleness = 120
		c.Faults.SiteCrash.MTBF, c.Faults.SiteCrash.MTTR = 3600, 600
		c.Faults.RequeueOnRecovery, c.Faults.RestoreReplicas = true, true
	}
	want := map[string]struct {
		control func(*core.Config)
		fields  []string
	}{
		"dataset-scheduler": {def, []string{"DS"}},
		"local-scheduler":   {def, []string{"LS"}},
		"sharing":           {heavy, []string{"Sharing"}},
		"adaptive@10MB/s":   {def, []string{"ES"}},
		"adaptive@100MB/s":  {func(c *core.Config) { c.BandwidthMBps = 100 }, []string{"ES"}},
		"multi-input":       {func(c *core.Config) { c.TotalJobs = 3000 }, []string{"InputsPerJob"}},
		"staleness":         {remote, []string{"InfoStaleness"}},
		"es-mapping":        {def, []string{"Mapping"}},
		"batch":             {def, []string{"BatchES", "BatchWindow"}},
		"user-focus":        {def, []string{"UserFocus"}},
		"cpu-spread":        {def, []string{"CPUSpreadFrac"}},
		"tiers":             {def, []string{"Tiers", "TierBandwidthsMBps"}},
		"regional-info":     {def, []string{"RegionalInfo"}},
		"ds-deletion":       {func(c *core.Config) { c.StorageGB = 15 }, []string{"DSDeleteAfter"}},
		"output":            {remote, []string{"OutputFraction"}},
		"backbone":          {heavy, []string{"BackboneMBps"}},
		"submission":        {def, []string{"ThinkTimeMean", "ArrivalRate"}},
		"crashes":           {def, []string{"Faults"}},
		"crashes-random":    {random, []string{"Faults"}},
		"feedback":          {contended, []string{"ES", "DS"}},
		"feedback-crashes":  {contendedCrashes, []string{"ES", "DS"}},
	}
	configOf := func(c Cell) core.Config {
		cfg := core.DefaultConfig()
		if err := c.apply(&cfg); err != nil {
			t.Fatal(err)
		}
		if err := cfg.Validate(); err != nil {
			t.Fatalf("%v: %v", c, err)
		}
		return cfg
	}
	arms := 0
	for _, a := range Ablations() {
		w, ok := want[a.Name]
		if !ok {
			t.Fatalf("ablation %q has no expectation in this test", a.Name)
		}
		delete(want, a.Name)
		arms += len(a.Arms)
		ref := core.DefaultConfig()
		w.control(&ref)
		control := configOf(a.Arms[0])
		if d := diffFields(ref, control); len(d) > 0 {
			t.Errorf("%s: control %v differs from its expected config in %v", a.Name, a.Arms[0], d)
		}
		var varied []string
		for _, arm := range a.Arms[1:] {
			d := diffFields(control, configOf(arm))
			for _, f := range d {
				if !slices.Contains(w.fields, f) {
					t.Errorf("%s: arm %v changes %s, not one of %v", a.Name, arm, f, w.fields)
				}
			}
			if len(d) == 0 {
				t.Errorf("%s: arm %v runs its control's config", a.Name, arm)
			}
			varied = append(varied, d...)
		}
		for _, f := range w.fields {
			if !slices.Contains(varied, f) {
				t.Errorf("%s: no arm changes %s", a.Name, f)
			}
		}
	}
	if len(want) > 0 || arms != 67 {
		t.Errorf("ablations missing: %v; %d arms, want 67", want, arms)
	}
}

// diffFields names the Config fields whose values differ between a and b.
func diffFields(a, b core.Config) []string {
	va, vb := reflect.ValueOf(a), reflect.ValueOf(b)
	var out []string
	for i := 0; i < va.NumField(); i++ {
		if !reflect.DeepEqual(va.Field(i).Interface(), vb.Field(i).Interface()) {
			out = append(out, va.Type().Field(i).Name)
		}
	}
	return out
}
