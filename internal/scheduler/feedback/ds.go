package feedback

import (
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/ds"
	"chicsim/internal/topology"
)

// DS is the adaptive Dataset Scheduler ("DataFeedback"). Where the
// paper's DataLeastLoaded replicates on raw popularity counts, DataFeedback
// (1) lowers its replication gate as the network backlog trend grows —
// replicating eagerly *before* fetch costs climb — and (2) ranks target
// sites by the telemetry-blended load plus fault and predicted-transfer
// penalties instead of the bare GIS load snapshot. With zero-valued Params
// (or no tracker) it is byte-identical to DataLeastLoaded, including RNG
// consumption.
type DS struct {
	Src     *rng.Source
	Tracker *Tracker
	Params  Params

	ties []topology.SiteID // reused tie-set scratch
}

// Name implements scheduler.Dataset.
func (*DS) Name() string { return "DataFeedback" }

// Decide implements scheduler.Dataset.
func (d *DS) Decide(g scheduler.GridView, self topology.SiteID, popular []scheduler.PopularFile) []scheduler.Replication {
	gate := d.Params.TrendThreshold
	if gate > 0 && d.Params.CongestionBoost > 0 {
		gate /= 1 + d.Params.CongestionBoost*d.Tracker.NetworkBacklogSeconds()
	}
	var out []scheduler.Replication
	for _, p := range popular {
		if float64(p.Count) < gate {
			continue
		}
		cands := d.targets(g, p, self)
		if len(cands) == 0 {
			continue
		}
		out = append(out, scheduler.Replication{File: p.File, Target: d.rank(g, self, p, cands)})
	}
	return out
}

// targets selects the candidate set per the DSNeighborhood knob. The
// default (0) is the baseline's siblings-then-whole-grid widening.
func (d *DS) targets(g scheduler.GridView, p scheduler.PopularFile, self topology.SiteID) []topology.SiteID {
	switch d.Params.DSNeighborhood {
	case 1: // siblings only: cascading stays in-region, never widens
		return ds.WithoutReplica(g, p.File, g.Topology().Siblings(self), self)
	case 2: // whole grid from the start
		all := make([]topology.SiteID, 0, g.NumSites())
		for s := 0; s < g.NumSites(); s++ {
			all = append(all, topology.SiteID(s))
		}
		return ds.WithoutReplica(g, p.File, all, self)
	default:
		return ds.CandidateTargets(g, p.File, self)
	}
}

// rank scores each candidate target — telemetry-blended load, fault
// penalty, and predicted push cost in equivalent queued jobs — and picks
// the minimum, collecting exact ties in candidate order and breaking them
// with one rng.Pick draw, mirroring the baseline's least-loaded pick.
func (d *DS) rank(g scheduler.GridView, self topology.SiteID, p scheduler.PopularFile, cands []topology.SiteID) topology.SiteID {
	score := func(s topology.SiteID) float64 {
		sc := float64(g.Load(s))
		if w := d.Params.QueueWeight; w > 0 && d.Tracker.Ready() {
			sd := d.Tracker.StalenessDiscount()
			sc = (1-w*sd)*sc + w*sd*d.Tracker.PredictedLoad(s) + w*d.Tracker.Pressure(s)
		}
		if d.Params.FaultWeight > 0 {
			sc += d.Params.FaultWeight * d.Tracker.FaultPenalty(s)
		}
		if d.Params.TransferWeight > 0 {
			push := g.PredictTransfer(self, s, g.FileSize(p.File))
			if d.Params.CongestionWeight > 0 {
				push += d.Params.CongestionWeight * d.Tracker.RouteBacklogSeconds(self, s)
			}
			sc += d.Params.TransferWeight * push
		}
		return sc
	}
	best := append(d.ties[:0], cands[0])
	bestScore := score(cands[0])
	for _, c := range cands[1:] {
		sc := score(c)
		switch {
		case sc < bestScore:
			bestScore = sc
			best = append(best[:0], c)
		case sc == bestScore:
			best = append(best, c)
		}
	}
	d.ties = best
	if len(best) == 1 || d.Src == nil {
		return best[0]
	}
	return rng.Pick(d.Src, best)
}
