package obs

import (
	"bytes"
	"encoding/json"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// fill begins a series with one gauge and one counter column and hands
// it ticks 0..n-1, each at t = i with both values i, in one reused row.
func fill(n int) *Series {
	s := new(Series)
	s.Begin([]string{"g", "c"}, []Kind{GaugeKind, CounterKind})
	row := make([]float64, 2)
	for i := 0; i < n; i++ {
		row[0], row[1] = float64(i), float64(i)
		s.Point(Point{T: float64(i), Values: row})
	}
	return s
}

// TestSeriesExactBelowCap checks that below the cap a series keeps its
// own copy of the columns and of every tick's row.
func TestSeriesExactBelowCap(t *testing.T) {
	names, kinds := []string{"a", "b"}, []Kind{GaugeKind, CounterKind}
	s := new(Series)
	s.Begin(names, kinds)
	names[0], kinds[0] = "changed", CounterKind
	row := []float64{1, 10}
	s.Point(Point{T: 5, Values: row})
	row[0], row[1] = 2, 20
	s.Point(Point{T: 6, Values: row})

	if !reflect.DeepEqual(s.Names, []string{"a", "b"}) || !reflect.DeepEqual(s.Kinds, []Kind{GaugeKind, CounterKind}) {
		t.Fatalf("columns = %v %v", s.Names, s.Kinds)
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

	s = fill(MaxSeriesPoints - 1)
	if len(s.Points) != MaxSeriesPoints-1 {
		t.Fatalf("%d ticks kept as %d points", MaxSeriesPoints-1, len(s.Points))
	}
	for i, p := range s.Points {
		if p.T != float64(i) || p.Values[0] != float64(i) || p.Values[1] != float64(i) {
			t.Fatalf("point %d = %v", i, p)
		}
	}
}

// TestSeriesCapsPointsAndPreservesCoverage checks the merged series at
// and beyond the cap: at most MaxSeriesPoints points, each spanning the
// ticks after its predecessor up to its own time, with the gauge the
// mean of those ticks and the counter the last tick's value. Every value
// here is exact in floating point, so the checks are ==.
func TestSeriesCapsPointsAndPreservesCoverage(t *testing.T) {
	for _, n := range []int{MaxSeriesPoints, MaxSeriesPoints + 1, MaxSeriesPoints + 2, 3*MaxSeriesPoints + 5, 20000} {
		s := fill(n)
		if len(s.Points) > MaxSeriesPoints || len(s.Points) < MaxSeriesPoints/4 {
			t.Fatalf("%d ticks: %d points", n, len(s.Points))
		}
		lo := 0.0
		for i, p := range s.Points {
			if p.Values[0] != (lo+p.T)/2 || p.Values[1] != p.T {
				t.Fatalf("%d ticks: point %d = %v spans ticks %v..%v", n, i, p, lo, p.T)
			}
			lo = p.T + 1
		}
		if last := s.Points[len(s.Points)-1].T; last != float64(n-1) {
			t.Fatalf("%d ticks: series ends at t=%v", n, last)
		}
	}
}

// TestSeriesGaugeAveraging feeds a gauge that is not linear in time, so
// a merged point's gauge is its ticks' mean only if every merge
// averages: each point must hold the mean of the squares of the ticks it
// spans. The sums stay below 2^53 and full points span a power of two
// ticks, so the arithmetic is exact and the check is ==.
func TestSeriesGaugeAveraging(t *testing.T) {
	for _, n := range []int{MaxSeriesPoints, 3*MaxSeriesPoints + 5, 20000} {
		s := new(Series)
		s.Begin([]string{"sq"}, []Kind{GaugeKind})
		row := make([]float64, 1)
		for i := 0; i < n; i++ {
			row[0] = float64(i * i)
			s.Point(Point{T: float64(i), Values: row})
		}
		lo := 0
		for i, p := range s.Points {
			hi := int(p.T)
			sum := 0.0
			for k := lo; k <= hi; k++ {
				sum += float64(k * k)
			}
			if want := sum / float64(hi-lo+1); p.Values[0] != want {
				t.Fatalf("%d ticks: point %d over ticks %d..%d has gauge %v, want %v", n, i, lo, hi, p.Values[0], want)
			}
			lo = hi + 1
		}
	}
}

// TestSeriesPartialGroupFlush checks the open last point: the cap halves
// the series at MaxSeriesPoints ticks, the next tick opens a point of its
// own that holds what it has so far, and the point closes once it spans
// as many ticks as the others.
func TestSeriesPartialGroupFlush(t *testing.T) {
	s := fill(MaxSeriesPoints)
	if len(s.Points) != MaxSeriesPoints/2 {
		t.Fatalf("%d ticks: %d points, want %d", MaxSeriesPoints, len(s.Points), MaxSeriesPoints/2)
	}
	row := make([]float64, 2)
	tick := func(i int) {
		row[0], row[1] = float64(i), float64(i)
		s.Point(Point{T: float64(i), Values: row})
	}
	tick(MaxSeriesPoints)
	if len(s.Points) != MaxSeriesPoints/2+1 {
		t.Fatalf("%d ticks: %d points, want %d", MaxSeriesPoints+1, len(s.Points), MaxSeriesPoints/2+1)
	}
	if got, want := s.Points[len(s.Points)-1], (Point{T: 512, Values: []float64{512, 512}}); !reflect.DeepEqual(got, want) {
		t.Fatalf("open point after one tick = %v, want %v", got, want)
	}
	if a, b := s.Column("g"), s.Column("g"); !reflect.DeepEqual(a, b) {
		t.Fatal("reading the series changed it")
	}
	tick(MaxSeriesPoints + 1)
	if got, want := s.Points[len(s.Points)-1], (Point{T: 513, Values: []float64{512.5, 513}}); len(s.Points) != MaxSeriesPoints/2+1 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d points, last %v after two ticks; want %d points, last %v", len(s.Points), got, MaxSeriesPoints/2+1, want)
	}
	tick(MaxSeriesPoints + 2)
	if got, want := s.Points[len(s.Points)-1], (Point{T: 514, Values: []float64{514, 514}}); len(s.Points) != MaxSeriesPoints/2+2 || !reflect.DeepEqual(got, want) {
		t.Fatalf("%d points, last %v after three ticks; want %d points, last %v", len(s.Points), got, MaxSeriesPoints/2+2, want)
	}
}

// TestSeriesDeterministic feeds the same random rows twice.
func TestSeriesDeterministic(t *testing.T) {
	run := func() *Series {
		s := new(Series)
		s.Begin([]string{"a", "b", "c"}, []Kind{GaugeKind, CounterKind, GaugeKind})
		src := rand.New(rand.NewPCG(11, 0))
		row := make([]float64, 3)
		for i := 0; i < 3333; i++ {
			row[0], row[1], row[2] = src.Float64(), float64(2*i), src.Float64()*10
			s.Point(Point{T: float64(i), Values: row})
		}
		return s
	}
	if a, b := run(), run(); !reflect.DeepEqual(a, b) {
		t.Fatal("same rows gave different series")
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
