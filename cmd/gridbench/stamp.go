package main

import (
	"sync"
	"time"

	"chicsim/internal/trace"
)

// laps is the recorder of the untraced repetitions, a clock rather than a
// trace: it reads the wall clock after every `every` finished jobs. A
// simulation is deterministic, so lap k does the same work in every
// repetition, and a burst of load from outside the process can be voted
// out lap by lap (see calmWall).
type laps struct {
	every, done int
	t0          time.Time
	marks       []float64 // seconds since t0
}

// Record implements trace.Recorder.
func (l *laps) Record(e trace.Event) {
	if e.Kind == trace.JobCompleted || e.Kind == trace.JobAbandoned {
		if l.done++; l.done%l.every == 0 {
			l.marks = append(l.marks, time.Since(l.t0).Seconds())
		}
	}
}

// stamp is the traced run's trace.Recorder. It stamps wall time on the
// two events that bracket every ES decision (core records JobSubmitted,
// calls Place, then records JobDispatched), counts transfer starts, and,
// when keepFlows is set, keeps the transfer events the netsim replay
// needs. The mutex lets the campaign's workers share one; two concurrent
// sims placing the same job id in the same microsecond would mis-time one
// decision, which the percentiles absorb.
type stamp struct {
	keepFlows bool

	mu        sync.Mutex
	base      time.Time
	pending   map[int]time.Duration // job -> wall clock at JobSubmitted
	place     []time.Duration       // wall time of each ES decision, in decision order
	transfers int                   // FetchStart + ReplPush + OutputStart
	flows     []trace.Event         // in record order, when keepFlows
}

func newStamp(keepFlows bool) *stamp {
	return &stamp{keepFlows: keepFlows, base: time.Now(), pending: make(map[int]time.Duration)}
}

// Record implements trace.Recorder.
func (s *stamp) Record(e trace.Event) {
	switch e.Kind {
	case trace.JobSubmitted:
		s.mu.Lock()
		s.pending[e.Job] = time.Since(s.base)
		s.mu.Unlock()
	case trace.JobDispatched:
		now := time.Since(s.base)
		s.mu.Lock()
		if t0, ok := s.pending[e.Job]; ok {
			s.place = append(s.place, now-t0)
			delete(s.pending, e.Job)
		}
		s.mu.Unlock()
	case trace.FetchStart, trace.ReplPush, trace.OutputStart:
		s.mu.Lock()
		s.transfers++
		if s.keepFlows {
			s.flows = append(s.flows, e)
		}
		s.mu.Unlock()
	case trace.FetchEnd, trace.ReplArrive, trace.OutputEnd:
		if s.keepFlows {
			s.mu.Lock()
			s.flows = append(s.flows, e)
			s.mu.Unlock()
		}
	}
}
