package obs

import (
	"encoding/json"
	"errors"
	"fmt"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// sampled begins sink with a gauge and a counter column and returns a
// function that hands it one row per call, reusing the row's memory as
// the simulator does.
func sampled(t *testing.T, sink Sink) func(at float64) {
	t.Helper()
	if err := sink.Begin([]string{"queue", "dispatches"}, []Kind{GaugeKind, CounterKind}); err != nil {
		t.Fatal(err)
	}
	row := make([]float64, 2)
	total := 0.0
	return func(at float64) {
		total++
		row[0], row[1] = at/2, total
		if err := sink.Point(Point{T: at, Values: row}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var sb strings.Builder
	sample := sampled(t, NewJSONLSink(&sb))
	sample(100)
	sample(200)

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	if len(lines) != 3 {
		t.Fatalf("lines = %d, want header + 2 points:\n%s", len(lines), sb.String())
	}
	var header struct {
		Names []string `json:"names"`
		Kinds []string `json:"kinds"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &header); err != nil {
		t.Fatalf("header: %v", err)
	}
	if len(header.Names) != 2 || header.Names[0] != "queue" ||
		header.Kinds[0] != "gauge" || header.Kinds[1] != "counter" {
		t.Fatalf("header = %+v", header)
	}
	var pt struct {
		T      float64   `json:"t"`
		Values []float64 `json:"values"`
	}
	if err := json.Unmarshal([]byte(lines[2]), &pt); err != nil {
		t.Fatalf("point: %v", err)
	}
	if pt.T != 200 || len(pt.Values) != 2 || pt.Values[0] != 100 || pt.Values[1] != 2 {
		t.Fatalf("point = %+v", pt)
	}
}

func TestCSVSinkShape(t *testing.T) {
	var sb strings.Builder
	sample := sampled(t, NewCSVSink(&sb))
	sample(100)
	sample(200)

	lines := strings.Split(strings.TrimSpace(sb.String()), "\n")
	want := []string{"t,queue,dispatches", "100,50,1", "200,100,2"}
	if len(lines) != len(want) {
		t.Fatalf("lines = %v", lines)
	}
	for i := range want {
		if lines[i] != want[i] {
			t.Errorf("line %d = %q, want %q", i, lines[i], want[i])
		}
	}
}

// recorder keeps a copy of every call it gets, as a string.
type recorder struct {
	calls []string
	fail  int // fail the call with this 1-based number; 0 never
}

func (r *recorder) record(call string) error {
	r.calls = append(r.calls, call)
	if len(r.calls) == r.fail {
		return errors.New("disk full")
	}
	return nil
}

func (r *recorder) Begin(names []string, kinds []Kind) error {
	return r.record(fmt.Sprint("begin ", names, kinds))
}

func (r *recorder) Point(p Point) error { return r.record(fmt.Sprint(p.T, p.Values)) }

func TestTee(t *testing.T) {
	if Tee() != nil || Tee(nil, nil) != nil {
		t.Fatal("Tee of no sinks is not nil")
	}
	only := &recorder{}
	if Tee(nil, only) != Sink(only) {
		t.Fatal("Tee of one sink is not that sink")
	}

	a, b := &recorder{}, &recorder{}
	sink := Tee(a, nil, b)
	if err := sink.Begin([]string{"q"}, []Kind{GaugeKind}); err != nil {
		t.Fatal(err)
	}
	if err := sink.Point(Point{T: 60, Values: []float64{3}}); err != nil {
		t.Fatal(err)
	}
	want := []string{"begin [q] [gauge]", "60 [3]"}
	if !reflect.DeepEqual(a.calls, want) || !reflect.DeepEqual(b.calls, want) {
		t.Fatalf("calls = %q and %q, want %q each", a.calls, b.calls, want)
	}

	// The first error stops the call: later sinks do not see it.
	a, b = &recorder{fail: 2}, &recorder{}
	sink = Tee(a, b)
	sink.Begin(nil, nil)
	if err := sink.Point(Point{T: 1}); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("Point error = %v", err)
	}
	if len(b.calls) != 1 {
		t.Fatalf("the sink after the failing one got %q", b.calls)
	}
}

func TestOpenStreamSink(t *testing.T) {
	var f Flags
	if sink, closeFn, err := f.OpenStreamSink(); sink != nil || closeFn != nil || err != nil {
		t.Fatalf("unset flag: (%v, %p, %v)", sink, closeFn, err)
	}

	dir := t.TempDir()
	cases := []struct {
		path string
		csv  bool
	}{
		{filepath.Join(dir, "series.csv"), true},
		{filepath.Join(dir, "series.jsonl"), false},
	}
	for _, tc := range cases {
		f.StreamPath = tc.path
		sink, closeFn, err := f.OpenStreamSink()
		if err != nil {
			t.Fatalf("%s: %v", tc.path, err)
		}
		if _, isCSV := sink.(*csvSink); isCSV != tc.csv {
			t.Errorf("%s: csv = %v, want %v", tc.path, isCSV, tc.csv)
		}
		if err := closeFn(); err != nil {
			t.Errorf("close %s: %v", tc.path, err)
		}
	}

	f.StreamPath = filepath.Join(dir, "no-such-dir", "x.jsonl")
	if _, _, err := f.OpenStreamSink(); err == nil {
		t.Error("unwritable path did not error")
	}
}
