package obs

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

func TestRegistrySamplesInRegistrationOrder(t *testing.T) {
	r := NewRegistry([]string{"a", "b"}, []Kind{GaugeKind, CounterKind})
	r.Sample(5, []float64{1, 10})
	r.Sample(6, []float64{2, 20})

	s := r.Series()
	if !reflect.DeepEqual(s.Names, []string{"a", "b"}) {
		t.Fatalf("names = %v", s.Names)
	}
	if !reflect.DeepEqual(s.Kinds, []Kind{GaugeKind, CounterKind}) {
		t.Fatalf("kinds = %v", s.Kinds)
	}
	want := []Point{{T: 5, Values: []float64{1, 10}}, {T: 6, Values: []float64{2, 20}}}
	if !reflect.DeepEqual(s.Points, want) {
		t.Fatalf("points = %v, want %v", s.Points, want)
	}
	if got := s.Column("b"); !reflect.DeepEqual(got, []float64{10, 20}) {
		t.Fatalf("Column(b) = %v", got)
	}
	if s.Column("missing") != nil {
		t.Fatal("Column on unknown probe should be nil")
	}
}

func TestProgressReportsCountsAndOccupancy(t *testing.T) {
	var text, jsonl bytes.Buffer
	p := NewProgress(&text, "sweep", 4)
	p.JSONLTo(&jsonl)
	p.SetWorkers(2)
	base := time.Unix(1000, 0)
	tick := 0
	p.now = func() time.Time { tick++; return base.Add(time.Duration(tick) * time.Second) }

	p.RunStart()
	p.RunStart()
	p.RunDone("cell-a")
	p.RunDone("cell-b")
	p.Finish()

	out := text.String()
	for _, want := range []string{"sweep: 1/4 sims", "sweep: 2/4 sims", "workers busy", "ETA", "finished 2/4"} {
		if !strings.Contains(out, want) {
			t.Fatalf("progress output missing %q:\n%s", want, out)
		}
	}
	lines := strings.Split(strings.TrimSpace(jsonl.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("jsonl lines = %d, want 2", len(lines))
	}
	var rec struct {
		Run   string `json:"run"`
		Done  int    `json:"done"`
		Total int    `json:"total"`
	}
	if err := json.Unmarshal([]byte(lines[1]), &rec); err != nil {
		t.Fatal(err)
	}
	if rec.Run != "cell-b" || rec.Done != 2 || rec.Total != 4 {
		t.Fatalf("jsonl record = %+v", rec)
	}
}

func TestProgressNilReceiverIsSafe(t *testing.T) {
	var p *Progress
	p.SetWorkers(3)
	p.RunStart()
	p.RunDone("x")
	p.JSONLTo(nil)
	p.Finish() // must not panic
}

func TestManifestHashStableAndWritable(t *testing.T) {
	type cfg struct{ A, B int }
	m1, err := NewManifest("test", cfg{1, 2}, []uint64{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	m2, err := NewManifest("test", cfg{1, 2}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if m1.ConfigSHA256 != m2.ConfigSHA256 {
		t.Fatalf("same config hashed differently: %s vs %s", m1.ConfigSHA256, m2.ConfigSHA256)
	}
	m3, _ := NewManifest("test", cfg{9, 2}, nil)
	if m3.ConfigSHA256 == m1.ConfigSHA256 {
		t.Fatal("different configs share a hash")
	}

	m1.SetExtra("workers", 8)
	m1.Finish()
	path := filepath.Join(t.TempDir(), "manifest.json")
	if err := m1.WriteFile(path); err != nil {
		t.Fatal(err)
	}
	var back Manifest
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Command != "test" || back.ConfigSHA256 != m1.ConfigSHA256 || back.Extra["workers"] != float64(8) {
		t.Fatalf("round-tripped manifest = %+v", back)
	}
}
