package report

import (
	"fmt"
	"io"

	"chicsim/internal/obs"
)

// SeriesCSV writes a sampled probe series as CSV: a `t` column of virtual
// timestamps followed by one column per probe in registration order. It
// replays the series through obs.NewCSVSink, so a post-hoc dump and a
// live -obs-stream CSV of the same run are byte-identical. The output is
// bit-identical for a given seed (values are engine state sampled at
// deterministic event times, formatted with %g).
func SeriesCSV(w io.Writer, s *obs.Series) {
	if s == nil || len(s.Names) == 0 {
		fmt.Fprintln(w, "(no series; set Config.ObsInterval)")
		return
	}
	sink := obs.NewCSVSink(w)
	if sink.Begin(s.Names, s.Kinds) != nil {
		return
	}
	for _, p := range s.Points {
		if sink.Point(p) != nil {
			return
		}
	}
}
