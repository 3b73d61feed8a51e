package main

import (
	"fmt"
	"math"
	"time"

	"chicsim/internal/core"
	"chicsim/internal/desim"
	"chicsim/internal/netsim"
	"chicsim/internal/rng"
	"chicsim/internal/topology"
	"chicsim/internal/trace"
)

// replayResult is one replay of a run's recorded traffic through a fresh
// engine and network.
type replayResult struct {
	transfers int           // transfers started
	wall      time.Duration // wall time of the replay's event loop
	maxDev    float64       // max |replayed - recorded| delivery time, seconds
}

// replayKey identifies a transfer for matching its end to its start: a
// site fetches a file from one source at a time, the DS pushes a file to a
// target once at a time, and a job ships its output once.
type replayKey struct {
	kind     trace.Kind // the start kind
	id       int        // file for fetches and pushes, job for outputs
	src, dst int
}

func startKey(e trace.Event) replayKey {
	if e.Kind == trace.OutputStart {
		return replayKey{e.Kind, e.Job, e.Src, e.Dst}
	}
	return replayKey{e.Kind, e.File, e.Src, e.Dst}
}

func endKey(e trace.Event) (replayKey, bool) {
	switch e.Kind {
	case trace.FetchEnd:
		return replayKey{trace.FetchStart, e.File, e.Src, e.Dst}, true
	case trace.ReplArrive:
		return replayKey{trace.ReplPush, e.File, e.Src, e.Dst}, true
	case trace.OutputEnd:
		return replayKey{trace.OutputStart, e.Job, e.Src, e.Dst}, true
	}
	return replayKey{}, false
}

// replayNetsim re-drives netsim with the transfers sim recorded, isolated
// from ES, sites and storage: every FetchStart/ReplPush/OutputStart is
// issued at its recorded time on a network over the run's own topology,
// and every delivery is compared with the recorded FetchEnd/ReplArrive/
// OutputEnd. Each start is scheduled by the one before it, so the event
// queue holds what netsim holds plus one pending start. Faults are not
// replayed: a transfer the run aborted is delivered here and fails the
// replay.
func replayNetsim(cfg core.Config, sim *core.Simulation, events []trace.Event) (replayResult, error) {
	wl := sim.Workload()
	if len(cfg.Tiers) > 0 || cfg.LatencyMsPerHop > 0 || len(cfg.Degradations) > 0 {
		return replayResult{}, fmt.Errorf("replay: tiers, hop latency and degradations are not replayed")
	}
	topo, err := topology.NewHierarchical(topology.Config{
		Sites:             cfg.Sites,
		RegionFanout:      cfg.RegionFanout,
		Bandwidth:         cfg.BandwidthMBps * 1e6,
		BackboneBandwidth: cfg.BackboneMBps * 1e6,
	}, rng.New(cfg.Seed).Derive("topology"))
	if err != nil {
		return replayResult{}, err
	}
	outputBytes := map[int]float64{}
	if cfg.OutputFraction > 0 {
		for _, js := range wl.Jobs {
			for _, j := range js {
				b := 0.0
				for _, f := range j.Inputs {
					b += wl.FileSizes[f]
				}
				outputBytes[int(j.ID)] = b * cfg.OutputFraction
			}
		}
	}

	// Pair every recorded end with its start. Only one transfer per key is
	// live at a time, so an end belongs to the latest open start of its
	// key; a start left open was never delivered.
	var starts []trace.Event
	var recordedEnd []float64 // by start index; NaN = never delivered
	open := map[replayKey][]int{}
	for _, e := range events {
		switch e.Kind {
		case trace.FetchStart, trace.ReplPush, trace.OutputStart:
			k := startKey(e)
			open[k] = append(open[k], len(recordedEnd))
			recordedEnd = append(recordedEnd, math.NaN())
			starts = append(starts, e)
		default:
			k, ok := endKey(e)
			if !ok {
				continue
			}
			idx := open[k]
			if len(idx) == 0 {
				return replayResult{}, fmt.Errorf("replay: %s at t=%g has no start", e.Kind, e.T)
			}
			recordedEnd[idx[len(idx)-1]] = e.T
			open[k] = idx[:len(idx)-1]
		}
	}

	eng := desim.New()
	net := netsim.New(eng, topo, cfg.Sharing)
	var (
		res       replayResult
		delivered int
		failure   error
	)
	var step func()
	step = func() {
		i := res.transfers
		e := starts[i]
		res.transfers++
		var size float64
		if e.Kind == trace.OutputStart {
			size = outputBytes[e.Job]
		} else {
			size = wl.FileSizes[e.File]
		}
		net.Transfer(topology.SiteID(e.Src), topology.SiteID(e.Dst), size, func(*netsim.Flow) {
			want := recordedEnd[i]
			if math.IsNaN(want) {
				if failure == nil {
					failure = fmt.Errorf("replay: %s %v delivered at t=%g but the run never delivered it", e.Kind, startKey(e), eng.Now())
				}
				return
			}
			delivered++
			res.maxDev = math.Max(res.maxDev, math.Abs(eng.Now()-want))
		})
		if res.transfers < len(starts) {
			eng.At(starts[res.transfers].T, step)
		}
	}
	if len(starts) > 0 {
		eng.At(starts[0].T, step)
	}
	t0 := time.Now()
	eng.Run()
	res.wall = time.Since(t0)
	if failure != nil {
		return res, failure
	}
	want := 0
	for _, t := range recordedEnd {
		if !math.IsNaN(t) {
			want++
		}
	}
	if delivered != want {
		return res, fmt.Errorf("replay: %d of %d recorded deliveries replayed", delivered, want)
	}
	return res, nil
}
