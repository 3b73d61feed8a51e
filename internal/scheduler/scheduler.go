// Package scheduler defines the three scheduling roles of the paper's
// framework — External Scheduler (ES), Local Scheduler (LS), and Dataset
// Scheduler (DS) — as interfaces, plus the grid view they consult.
//
// "Within this framework, scheduling logic is encapsulated in three
// modules" (§3). Concrete algorithms live in the es, ls, and ds
// subpackages; a simulation is configured by picking one implementation of
// each.
package scheduler

import (
	"chicsim/internal/job"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// GridView is the information a scheduling module may consult: site load,
// replica locations, file metadata, topology, and network conditions. It is
// implemented by the core simulation (backed by the GIS) and kept minimal
// so algorithms remain comparable — an algorithm can only be as informed as
// the paper's information services allow.
type GridView interface {
	// NumSites returns the number of sites on the grid.
	NumSites() int
	// Load returns a site's load (number of jobs waiting to run).
	Load(topology.SiteID) int
	// CEs returns a site's compute-element count (static capacity
	// information any grid information index publishes).
	CEs(topology.SiteID) int
	// Replicas returns the sites currently holding a file, sorted by id.
	// The slice belongs to the view: callers must not modify it or keep
	// it past the current event.
	Replicas(storage.FileID) []topology.SiteID
	// LeastLoadedHolders returns the holders of a file that have the
	// minimum load, sorted by id, or nil when the file has no holders.
	// The slice belongs to the view, as with Replicas.
	LeastLoadedHolders(storage.FileID) []topology.SiteID
	// HasReplica reports whether a site holds a file.
	HasReplica(storage.FileID, topology.SiteID) bool
	// FileSize returns a file's size in bytes.
	FileSize(storage.FileID) float64
	// Topology returns the routed network (for hops and neighbor sets).
	Topology() *topology.Topology
	// Congestion returns the number of active transfers crossing the most
	// loaded link on the route between two sites.
	Congestion(src, dst topology.SiteID) int
	// PredictTransfer estimates seconds to move size bytes between two
	// sites under current conditions.
	PredictTransfer(src, dst topology.SiteID, size float64) float64
}

// External decides, at submission time, which site a job is sent to.
type External interface {
	// Name identifies the algorithm in reports (e.g. "JobDataPresent").
	Name() string
	// Place returns the execution site for a job submitted at j.Origin.
	Place(g GridView, j *job.Job) topology.SiteID
}

// Local orders a site's incoming queue. It selects which queued job a free
// processor should run next.
type Local interface {
	// Name identifies the algorithm in reports (e.g. "FIFO").
	Name() string
	// Next returns the index into queue of the job to run, or -1 when no
	// queued job is eligible. ready reports whether a job's input data is
	// resident at the site; a processor may only run ready jobs (the
	// paper: a processor is idle when "the datasets needed for the jobs
	// in the queue are not yet available").
	Next(queue []*job.Job, ready func(*job.Job) bool) int
}

// PopularFile is a dataset-popularity observation reported by a site to
// its Dataset Scheduler: accesses recorded since the DS last woke.
type PopularFile struct {
	File  storage.FileID
	Count int
	// ByRequester breaks Count down by the site that triggered the
	// access (the execution site of the job, or the site that fetched a
	// copy from here). Used by the DataBestClient extension.
	ByRequester map[topology.SiteID]int
}

// Replication is a DS decision: push File from the deciding site to Target.
type Replication struct {
	File   storage.FileID
	Target topology.SiteID
}

// Batch is an alternative External Scheduler contract for the classical
// batch-mode heuristics the paper contrasts with in §2 (Min-Min/Max-Min
// level-by-level scheduling, AppLeS-style sweeps): jobs accumulate over a
// scheduling window and are assigned together, so the heuristic can reason
// about the whole set. Assign returns one execution site per job, in
// order. Implementations may assume estimates are accurate — exactly the
// assumption the paper's decentralized online policies avoid — which makes
// the comparison an ablation of that assumption.
type Batch interface {
	// Name identifies the algorithm in reports (e.g. "BatchMinMin").
	Name() string
	// Assign maps every job in the batch to a site.
	Assign(g GridView, jobs []*job.Job) []topology.SiteID
}

// Dataset is the asynchronous replication policy run periodically at each
// site. It sees the popularity of locally available datasets and returns
// the replicas to push. Returning nil means no action (DataDoNothing).
type Dataset interface {
	// Name identifies the algorithm in reports (e.g. "DataLeastLoaded").
	Name() string
	// Decide is invoked at each DS wake-up with the files whose recorded
	// access count reached the popularity threshold, most popular first.
	Decide(g GridView, self topology.SiteID, popular []PopularFile) []Replication
}
