package obs

import (
	"encoding/json"
	"errors"
	"path/filepath"
	"strings"
	"testing"
)

func sampledRegistry() (*Registry, func(t float64)) {
	r := NewRegistry([]string{"queue", "dispatches"}, []Kind{GaugeKind, CounterKind})
	total := 0.0
	return r, func(t float64) {
		total++
		r.Sample(t, []float64{t / 2, total})
	}
}

func TestJSONLSinkShape(t *testing.T) {
	var sb strings.Builder
	r, sample := sampledRegistry()
	r.StreamTo(NewJSONLSink(&sb))
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
	if err := r.SinkErr(); err != nil {
		t.Fatalf("SinkErr = %v", err)
	}
}

func TestCSVSinkShape(t *testing.T) {
	var sb strings.Builder
	r, sample := sampledRegistry()
	r.StreamTo(NewCSVSink(&sb))
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
	if err := r.SinkErr(); err != nil {
		t.Fatalf("SinkErr = %v", err)
	}
}

// failAfter accepts n writes and then fails every subsequent one.
type failAfter struct {
	n      int
	writes int
}

func (w *failAfter) Write(p []byte) (int, error) {
	w.writes++
	if w.writes > w.n {
		return 0, errors.New("disk full")
	}
	return len(p), nil
}

// A sink error is sticky: the sink is dropped after the first failure,
// the error is reported via SinkErr, and the in-memory series keeps
// accumulating unaffected.
func TestSinkErrorSticky(t *testing.T) {
	w := &failAfter{n: 2} // header + first point succeed
	r, sample := sampledRegistry()
	r.StreamTo(NewJSONLSink(w))
	sample(100)
	sample(200) // fails; sink dropped
	sample(300) // must not reach the writer

	if err := r.SinkErr(); err == nil || !strings.Contains(err.Error(), "disk full") {
		t.Fatalf("SinkErr = %v", err)
	}
	if w.writes != 3 {
		t.Errorf("writer called %d times; the sink was not dropped after failing", w.writes)
	}
	if got := len(r.Series().Points); got != 3 {
		t.Errorf("in-memory series has %d points, want all 3", got)
	}
}

// A header failure surfaces immediately and no points are streamed.
func TestSinkHeaderError(t *testing.T) {
	w := &failAfter{n: 0}
	r, sample := sampledRegistry()
	r.StreamTo(NewJSONLSink(w))
	if err := r.SinkErr(); err == nil {
		t.Fatal("header failure not reported")
	}
	sample(100)
	if w.writes != 1 {
		t.Errorf("writer called %d times after header failure", w.writes)
	}
}

func TestStreamToNilIsNoop(t *testing.T) {
	r, sample := sampledRegistry()
	r.StreamTo(nil)
	sample(100)
	if err := r.SinkErr(); err != nil {
		t.Fatalf("SinkErr = %v", err)
	}
}

// Attaching a sink after sampling started would hand it a headerless
// tail of the series; that is a wiring bug, so it panics.
func TestStreamToAfterSamplingPanics(t *testing.T) {
	r, sample := sampledRegistry()
	sample(100)
	defer func() {
		if recover() == nil {
			t.Fatal("StreamTo after sampling did not panic")
		}
	}()
	r.StreamTo(NewJSONLSink(&strings.Builder{}))
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
