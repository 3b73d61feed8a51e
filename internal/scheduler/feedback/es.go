package feedback

import (
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/scheduler/es"
	"chicsim/internal/topology"
)

// ES is the adaptive External Scheduler ("JobFeedback"). It ranks the same
// data-holding candidates JobDataPresent would consider, but scores them
// with the tracker's staleness-discounted load blend, dispatch-pressure
// correction, and decaying fault penalties; with SpreadSeconds > 0 it can
// divert jobs off swamped holders to sites where fetching the data is
// cheaper than queueing behind it. With zero-valued Params (or no tracker)
// it is byte-identical to JobDataPresent, including RNG consumption.
type ES struct {
	Src           *rng.Source
	AvgComputeSec float64 // assumed mean compute time of a queued job
	CEsPerSite    float64 // assumed processors per site
	Tracker       *Tracker
	Params        Params

	ties []topology.SiteID // reused tie-set scratch
}

// Name implements scheduler.External.
func (*ES) Name() string { return "JobFeedback" }

// Place implements scheduler.External.
func (e *ES) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	cands := es.DataPresentCandidates(g, j)
	best := e.rank(g, cands)
	if e.Params.SpreadSeconds > 0 && e.Tracker.Ready() {
		if alt, ok := e.divert(g, j, best); ok {
			return alt
		}
	}
	return best
}

// effLoad is the telemetry-blended queue estimate for site s. With
// QueueWeight zero it is exactly float64(g.Load(s)) — the conversion of an
// int queue length is lossless, so score comparisons and tie sets match
// the static baseline's integer comparisons bit for bit.
func (e *ES) effLoad(g scheduler.GridView, s topology.SiteID) float64 {
	load := float64(g.Load(s))
	if w := e.Params.QueueWeight; w > 0 && e.Tracker.Ready() {
		d := e.Tracker.StalenessDiscount()
		load = (1-w*d)*load + w*d*e.Tracker.PredictedLoad(s) + w*e.Tracker.Pressure(s)
	}
	return load
}

// score ranks candidate sites: blended load plus fault penalty, in
// equivalent queued jobs.
func (e *ES) score(g scheduler.GridView, s topology.SiteID) float64 {
	sc := e.effLoad(g, s)
	if e.Params.FaultWeight > 0 {
		sc += e.Params.FaultWeight * e.Tracker.FaultPenalty(s)
	}
	return sc
}

// rank picks the lowest-scoring candidate, collecting exact ties in
// candidate order and breaking them with one rng.Pick draw — the same
// structure (and therefore the same stream consumption) as the static
// policies' least-loaded selection. Ties go to scratch: cands may be a GIS
// snapshot entry and is never written.
func (e *ES) rank(g scheduler.GridView, cands []topology.SiteID) topology.SiteID {
	best := append(e.ties[:0], cands[0])
	bestScore := e.score(g, cands[0])
	for _, c := range cands[1:] {
		sc := e.score(g, c)
		switch {
		case sc < bestScore:
			bestScore = sc
			best = append(best[:0], c)
		case sc == bestScore:
			best = append(best, c)
		}
	}
	e.ties = best
	if len(best) == 1 || e.Src == nil {
		return best[0]
	}
	return rng.Pick(e.Src, best)
}

// divert decides whether to move job j off the chosen data holder. Only
// when the holder's estimated queue wait exceeds SpreadSeconds does it
// cost out every site — max(queue wait, congestion-penalized fetch time)
// plus fault penalty — and it diverts only when the cheapest alternative
// wins by more than SpreadSeconds (hysteresis). The search is a
// deterministic first-wins argmin: no extra RNG draws, so seeds stay
// comparable across SpreadSeconds settings.
func (e *ES) divert(g scheduler.GridView, j *job.Job, holder topology.SiteID) (topology.SiteID, bool) {
	holderCost := e.siteCost(g, j, holder)
	if e.queueSeconds(g, holder) <= e.Params.SpreadSeconds {
		return 0, false
	}
	bestCost := holderCost
	best := holder
	for s := 0; s < g.NumSites(); s++ {
		sid := topology.SiteID(s)
		if sid == holder {
			continue
		}
		if c := e.siteCost(g, j, sid); c < bestCost {
			bestCost = c
			best = sid
		}
	}
	if best != holder && bestCost+e.Params.SpreadSeconds < holderCost {
		return best, true
	}
	return 0, false
}

// queueSeconds estimates how long site s's current queue takes to drain.
func (e *ES) queueSeconds(g scheduler.GridView, s topology.SiteID) float64 {
	ces := e.CEsPerSite
	if c := g.CEs(s); c > 0 {
		ces = float64(c)
	}
	if ces <= 0 {
		ces = 1
	}
	return e.effLoad(g, s) * e.AvgComputeSec / ces
}

// siteCost estimates job j's wait at site s: the larger of queue drain and
// input fetch time (fetches overlap queueing), plus the fault penalty
// expressed in seconds.
func (e *ES) siteCost(g scheduler.GridView, j *job.Job, s topology.SiteID) float64 {
	fetch := 0.0
	for _, f := range j.Inputs {
		if g.HasReplica(f, s) {
			continue
		}
		reps := g.Replicas(f)
		if len(reps) == 0 {
			continue
		}
		best := -1.0
		for _, r := range reps {
			t := g.PredictTransfer(r, s, g.FileSize(f))
			if e.Params.CongestionWeight > 0 {
				t += e.Params.CongestionWeight * e.Tracker.RouteBacklogSeconds(r, s)
			}
			if best < 0 || t < best {
				best = t
			}
		}
		if best > fetch {
			fetch = best // inputs fetch in parallel: bound by the slowest
		}
	}
	cost := e.queueSeconds(g, s)
	if fetch > cost {
		cost = fetch
	}
	if e.Params.FaultWeight > 0 {
		ces := e.CEsPerSite
		if ces <= 0 {
			ces = 1
		}
		cost += e.Params.FaultWeight * e.Tracker.FaultPenalty(s) * e.AvgComputeSec / ces
	}
	return cost
}
