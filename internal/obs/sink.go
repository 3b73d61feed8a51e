package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Sink receives the probe rows of a run's observation pass as the
// simulation takes them; it is the pass's only output. CSV and JSON Lines
// sinks put the rows on disk while the run is still going, so a long run
// can be tailed and a crashed one leaves the rows taken so far; Series
// keeps them in memory for drawing once the run ends.
//
// Sinks are called from the simulation goroutine; implementations need
// no locking but must not block indefinitely. The host passes the same
// Values slice on every call and overwrites it between calls, so a sink
// must not keep it. After the first error the host makes no further
// calls.
type Sink interface {
	// Begin is called once, before any points, with the probe columns in
	// registration order.
	Begin(names []string, kinds []Kind) error
	// Point is called once per sampling tick. p.Values is only valid
	// during the call.
	Point(p Point) error
}

// jsonlSink streams one JSON object per line: a header object with the
// column metadata, then {"t": ..., "values": [...]} per tick.
type jsonlSink struct {
	enc *json.Encoder
}

// NewJSONLSink returns a Sink writing JSON Lines to w. The first line
// holds the column names and kinds; each subsequent line is one sample.
func NewJSONLSink(w io.Writer) Sink {
	return &jsonlSink{enc: json.NewEncoder(w)}
}

func (s *jsonlSink) Begin(names []string, kinds []Kind) error {
	ks := make([]string, len(kinds))
	for i, k := range kinds {
		ks[i] = k.String()
	}
	return s.enc.Encode(struct {
		Names []string `json:"names"`
		Kinds []string `json:"kinds"`
	}{names, ks})
}

func (s *jsonlSink) Point(p Point) error {
	return s.enc.Encode(struct {
		T      float64   `json:"t"`
		Values []float64 `json:"values"`
	}{p.T, p.Values})
}

// csvSink streams a header row ("t" plus probe names) and one comma-
// separated row per tick, each value formatted as strconv's shortest 'g'.
type csvSink struct {
	w   io.Writer
	buf []byte
}

// NewCSVSink returns a Sink writing CSV rows to w.
func NewCSVSink(w io.Writer) Sink {
	return &csvSink{w: w}
}

func (s *csvSink) Begin(names []string, kinds []Kind) error {
	s.buf = append(s.buf[:0], 't')
	for _, n := range names {
		s.buf = append(s.buf, ',')
		s.buf = append(s.buf, n...)
	}
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

func (s *csvSink) Point(p Point) error {
	s.buf = strconv.AppendFloat(s.buf[:0], p.T, 'g', -1, 64)
	for _, v := range p.Values {
		s.buf = append(s.buf, ',')
		s.buf = strconv.AppendFloat(s.buf, v, 'g', -1, 64)
	}
	s.buf = append(s.buf, '\n')
	_, err := s.w.Write(s.buf)
	return err
}

// OpenStreamSink creates the -obs-stream file and returns the matching
// sink (CSV for a .csv extension, JSON Lines otherwise) plus a close
// function. Returns (nil, nil, nil) when the flag is unset.
func (f *Flags) OpenStreamSink() (Sink, func() error, error) {
	if f.StreamPath == "" {
		return nil, nil, nil
	}
	file, err := os.Create(f.StreamPath)
	if err != nil {
		return nil, nil, fmt.Errorf("obs: stream sink: %w", err)
	}
	var sink Sink
	if strings.HasSuffix(f.StreamPath, ".csv") {
		sink = NewCSVSink(file)
	} else {
		sink = NewJSONLSink(file)
	}
	return sink, file.Close, nil
}

// Tee returns a Sink that hands every call to each of sinks in order and
// stops at the first error, which it returns. Nil sinks are left out: Tee
// of a single non-nil sink is that sink, and Tee of none is nil.
func Tee(sinks ...Sink) Sink {
	var t tee
	for _, s := range sinks {
		if s != nil {
			t = append(t, s)
		}
	}
	switch len(t) {
	case 0:
		return nil
	case 1:
		return t[0]
	}
	return t
}

type tee []Sink

func (t tee) Begin(names []string, kinds []Kind) error {
	for _, s := range t {
		if err := s.Begin(names, kinds); err != nil {
			return err
		}
	}
	return nil
}

func (t tee) Point(p Point) error {
	for _, s := range t {
		if err := s.Point(p); err != nil {
			return err
		}
	}
	return nil
}
