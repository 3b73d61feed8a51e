// Package es implements the paper's four External Scheduler algorithms —
// JobRandom, JobLeastLoaded, JobDataPresent, JobLocal (§4) — plus two
// extensions: JobBestCost and Adaptive (the paper's future-work idea of
// selecting a strategy per job from current grid conditions).
package es

import (
	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// allSites enumerates 0..NumSites-1.
func allSites(g scheduler.GridView) []topology.SiteID {
	out := make([]topology.SiteID, g.NumSites())
	for i := range out {
		out[i] = topology.SiteID(i)
	}
	return out
}

// fillAllSites returns buf holding 0..NumSites-1, filling it only when
// its length differs. PickLeastLoaded never writes into its candidates, so
// a filled buffer stays valid across placements.
func fillAllSites(g scheduler.GridView, buf []topology.SiteID) []topology.SiteID {
	n := g.NumSites()
	if len(buf) == n {
		return buf
	}
	if cap(buf) < n {
		buf = make([]topology.SiteID, n)
	}
	buf = buf[:n]
	for i := range buf {
		buf[i] = topology.SiteID(i)
	}
	return buf
}

// Random sends each job to a uniformly random site ("JobRandom").
type Random struct{ Src *rng.Source }

// Name implements scheduler.External.
func (Random) Name() string { return "JobRandom" }

// Place implements scheduler.External.
func (r Random) Place(g scheduler.GridView, _ *job.Job) topology.SiteID {
	return topology.SiteID(r.Src.Intn(g.NumSites()))
}

// LeastLoaded sends each job to the site with the fewest jobs waiting to
// run ("JobLeastLoaded"), breaking ties randomly.
type LeastLoaded struct {
	Src *rng.Source

	sites, ties []topology.SiteID // reused per-placement scratch
}

// Name implements scheduler.External.
func (*LeastLoaded) Name() string { return "JobLeastLoaded" }

// Place implements scheduler.External.
func (l *LeastLoaded) Place(g scheduler.GridView, _ *job.Job) topology.SiteID {
	l.sites = fillAllSites(g, l.sites)
	return scheduler.PickLeastLoaded(g, l.sites, l.Src, &l.ties)
}

// Local always runs jobs at the submitting user's site ("JobLocal").
type Local struct{}

// Name implements scheduler.External.
func (Local) Name() string { return "JobLocal" }

// Place implements scheduler.External.
func (Local) Place(_ scheduler.GridView, j *job.Job) topology.SiteID { return j.Origin }

// DataPresent sends each job to "a site that already has the required
// data. If more than one site qualifies choose the least loaded one."
// With multiple inputs (extension), candidate sites are those holding the
// largest resident share of the job's input bytes. If no site holds any
// input (impossible when masters exist; defensive fallback), it degrades
// to least-loaded.
type DataPresent struct {
	Src *rng.Source

	ties []topology.SiteID // reused per-placement scratch
}

// Name implements scheduler.External.
func (*DataPresent) Name() string { return "JobDataPresent" }

// Place implements scheduler.External. A single-input job asks the view
// for the input's least-loaded holders directly (the GIS memoizes that
// set per snapshot) and draws among them exactly as PickLeastLoaded would
// over the full holder list.
func (d *DataPresent) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	if len(j.Inputs) == 1 {
		if best := g.LeastLoadedHolders(j.Inputs[0]); len(best) > 0 {
			if len(best) == 1 || d.Src == nil {
				return best[0]
			}
			return rng.Pick(d.Src, best)
		}
	}
	return scheduler.PickLeastLoaded(g, DataPresentCandidates(g, j), d.Src, &d.ties)
}

// DataPresentCandidates returns, in deterministic order, the candidate
// sites JobDataPresent ranks for job j: the holders of its single input
// (or, with multiple inputs, the sites holding the largest resident share
// of its input bytes), widening to every site when nothing qualifies. The
// result is never empty. Exported so telemetry-driven extensions can rank
// exactly the baseline's candidate set with richer scores.
func DataPresentCandidates(g scheduler.GridView, j *job.Job) []topology.SiteID {
	if len(j.Inputs) == 1 {
		reps := g.Replicas(j.Inputs[0])
		if len(reps) == 0 {
			return allSites(g)
		}
		return reps
	}
	// Multi-input extension: maximize resident input bytes.
	bytesAt := make(map[topology.SiteID]float64)
	for _, f := range j.Inputs {
		size := g.FileSize(f)
		for _, s := range g.Replicas(f) {
			bytesAt[s] += size
		}
	}
	if len(bytesAt) == 0 {
		return allSites(g)
	}
	bestBytes := -1.0
	var cands []topology.SiteID
	for _, s := range allSites(g) { // iterate in site order for determinism
		b, ok := bytesAt[s]
		if !ok {
			continue
		}
		switch {
		case b > bestBytes:
			bestBytes = b
			cands = []topology.SiteID{s}
		case b == bestBytes:
			cands = append(cands, s)
		}
	}
	return cands
}

// Regional is an extension for tiered grids: run the job within the
// submitting user's region whenever any region member already holds the
// data (least-loaded such member wins), and otherwise run at the origin so
// the fetched copy lands in-region for future jobs. It keeps computation
// off the shared backbone without the full coupling of JobDataPresent.
type Regional struct {
	Src *rng.Source

	region, holders, ties []topology.SiteID // reused per-placement scratch
}

// Name implements scheduler.External.
func (*Regional) Name() string { return "JobRegional" }

// Place implements scheduler.External.
func (r *Regional) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	r.region = append(r.region[:0], j.Origin)
	r.region = append(r.region, g.Topology().Siblings(j.Origin)...)
	holders := r.holders[:0]
	for _, s := range r.region {
		hasAll := true
		for _, f := range j.Inputs {
			if !g.HasReplica(f, s) {
				hasAll = false
				break
			}
		}
		if hasAll {
			holders = append(holders, s)
		}
	}
	r.holders = holders
	if len(holders) == 0 {
		return j.Origin
	}
	return scheduler.PickLeastLoaded(g, holders, r.Src, &r.ties)
}

// BestCost is an extension: it estimates, for every site, the job's
// completion cost there — the larger of (a) predicted input transfer time
// from the closest replica and (b) queued work ahead of it — plus the
// job's own compute time, and picks the cheapest site. AvgComputeSec
// approximates the compute demand of queued jobs (the ES cannot see their
// exact requirements, matching the paper's decentralized-information
// stance).
type BestCost struct {
	Src           *rng.Source
	AvgComputeSec float64 // assumed mean compute time of a queued job
	CEsPerSite    float64 // assumed processors per site

	best []topology.SiteID // reused per-placement scratch
}

// Name implements scheduler.External.
func (*BestCost) Name() string { return "JobBestCost" }

// Place implements scheduler.External.
func (b *BestCost) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	ces := b.CEsPerSite
	if ces <= 0 {
		ces = 1
	}
	bestCost := -1.0
	best := b.best[:0]
	for si := 0; si < g.NumSites(); si++ { // site-id order for determinism
		s := topology.SiteID(si)
		transfer := 0.0
		for _, f := range j.Inputs {
			if g.HasReplica(f, s) {
				continue
			}
			t := b.closestTransfer(g, f, s)
			if t > transfer {
				transfer = t // inputs fetched in parallel: bound by slowest
			}
		}
		queue := float64(g.Load(s)) * b.AvgComputeSec / ces
		wait := transfer
		if queue > wait {
			wait = queue
		}
		cost := wait + j.ComputeTime
		switch {
		case bestCost < 0 || cost < bestCost:
			bestCost = cost
			best = append(best[:0], s)
		case cost == bestCost:
			best = append(best, s)
		}
	}
	b.best = best
	if len(best) == 1 || b.Src == nil {
		return best[0]
	}
	return rng.Pick(b.Src, best)
}

func (b *BestCost) closestTransfer(g scheduler.GridView, f storage.FileID, to topology.SiteID) float64 {
	reps := g.Replicas(f)
	if len(reps) == 0 {
		return 0
	}
	best := -1.0
	for _, r := range reps {
		t := g.PredictTransfer(r, to, g.FileSize(f))
		if best < 0 || t < best {
			best = t
		}
	}
	return best
}

// Adaptive is the paper's future-work idea (§5.3): "slow links and large
// datasets might imply scheduling the jobs at the data source ... if the
// data is small and network links are not congested, moving the data to
// the job source ... might be [a] viable alternative". It compares the
// predicted time to pull the job's inputs to the origin against a fraction
// of the job's compute time: cheap pulls run locally, expensive ones run
// where the data is.
type Adaptive struct {
	Src *rng.Source
	// PullFraction is the threshold: pull data home when predicted
	// transfer time < PullFraction × compute time. The paper suggests no
	// value; 0.5 is the documented default.
	PullFraction float64

	dp DataPresent // reused inner scheduler for the push decision
}

// Name implements scheduler.External.
func (*Adaptive) Name() string { return "JobAdaptive" }

// Place implements scheduler.External.
func (a *Adaptive) Place(g scheduler.GridView, j *job.Job) topology.SiteID {
	frac := a.PullFraction
	if frac <= 0 {
		frac = 0.5
	}
	pull := 0.0
	for _, f := range j.Inputs {
		if g.HasReplica(f, j.Origin) {
			continue
		}
		reps := g.Replicas(f)
		if len(reps) == 0 {
			continue
		}
		best := -1.0
		for _, r := range reps {
			t := g.PredictTransfer(r, j.Origin, g.FileSize(f))
			if best < 0 || t < best {
				best = t
			}
		}
		if best > pull {
			pull = best
		}
	}
	if pull < frac*j.ComputeTime {
		return j.Origin
	}
	a.dp.Src = a.Src
	return a.dp.Place(g, j)
}
