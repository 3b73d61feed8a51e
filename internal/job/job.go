// Package job defines the unit of work in the Data Grid and its lifecycle.
//
// Per the paper's model (§3): each job requires a specified set of input
// files to be available at its execution site, then executes for a
// specified time on a single processor. Job output is of negligible size
// compared to input and its cost is ignored (§5.1).
package job

import (
	"fmt"

	"chicsim/internal/desim"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// ID identifies a job grid-wide.
type ID int

// UserID identifies a submitting user.
type UserID int

// State is a job's lifecycle stage.
type State int

const (
	// Created: generated by the workload but not yet submitted.
	Created State = iota
	// Submitted: handed to an External Scheduler.
	Submitted
	// Queued: placed in a site's incoming queue (data fetch may be in
	// flight concurrently, per the paper's max(queue, transfer) model).
	Queued
	// Running: occupying a compute element.
	Running
	// Done: finished; the user may submit their next job.
	Done
)

func (s State) String() string {
	switch s {
	case Created:
		return "Created"
	case Submitted:
		return "Submitted"
	case Queued:
		return "Queued"
	case Running:
		return "Running"
	case Done:
		return "Done"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Hold records one input replica pinned at a job's execution site while
// the job waits and runs. The slice on Job is runtime scratch owned by
// the site package; keeping it on the job (instead of a per-site map)
// lets the Store recycle its capacity with the job.
type Hold struct {
	// Slot is the file's record at the holding site's store, which the
	// hold keeps alive.
	Slot storage.Slot
	// Transient marks a replica fetched for this job only (no cache
	// admission): its refcount lives in the site's file record, not the
	// storage layer.
	Transient bool
}

// Times holds a job's lifecycle timestamps (virtual seconds; -1 until
// reached). They are read once per job at completion — by metrics and
// tracing — so the Store keeps them in a cold parallel slab, out of the
// cache lines the scheduler loops touch. The pointer is embedded, so
// j.SubmitTime etc. read through it transparently.
type Times struct {
	SubmitTime   desim.Time
	DispatchTime desim.Time
	DataReady    desim.Time // all inputs resident at Site
	StartTime    desim.Time
	EndTime      desim.Time
}

// Job is a single unit of work. Fields are set by the workload generator
// and updated by the site runtime as the job progresses. The hot fields
// (identity, inputs, state, site) live inline; timestamps live behind the
// embedded *Times in a cold slab when the job comes from a Store.
type Job struct {
	ID     ID
	User   UserID
	Origin topology.SiteID // the user's home site (where it was submitted)

	Inputs      []storage.FileID // required input datasets (paper: one; extension: many)
	ComputeTime float64          // seconds on one processor (paper: 300 × sizeGB)

	State State
	Site  topology.SiteID // execution site once dispatched

	// Failure bookkeeping (fault-injection runs only).
	Retries        int             // how many times the job has failed so far
	LastFailedSite topology.SiteID // site of the most recent failure; -1 if none

	// Runtime scratch owned by the site package while the job is at a
	// site. RunEv is the pending completion event while Running; RunIdx
	// is the job's index in the site's running list (-1 otherwise).
	Holds  []Hold
	RunEv  desim.Event
	RunIdx int

	fromStore bool

	*Times
}

// New creates a standalone job in the Created state with timestamps
// cleared. Jobs inside a simulation come from a Store instead.
func New(id ID, user UserID, origin topology.SiteID, inputs []storage.FileID, compute float64) *Job {
	j := &Job{Times: &Times{}}
	initJob(j, id, user, origin, inputs, compute)
	return j
}

// initJob resets every field for a fresh lifecycle, preserving the Times
// pointer, the Holds capacity, and the store provenance flag.
func initJob(j *Job, id ID, user UserID, origin topology.SiteID, inputs []storage.FileID, compute float64) {
	t, holds, fromStore := j.Times, j.Holds[:0], j.fromStore
	*t = Times{SubmitTime: -1, DispatchTime: -1, DataReady: -1, StartTime: -1, EndTime: -1}
	*j = Job{
		ID:          id,
		User:        user,
		Origin:      origin,
		Inputs:      inputs,
		ComputeTime: compute,
		State:       Created,
		Site:        -1,

		LastFailedSite: -1,

		Holds:  holds,
		RunIdx: -1,

		fromStore: fromStore,
		Times:     t,
	}
}

// ResponseTime returns EndTime − SubmitTime; it panics if the job is not
// Done (calling it early is a harness bug worth surfacing loudly).
func (j *Job) ResponseTime() float64 {
	if j.State != Done {
		panic(fmt.Sprintf("job: ResponseTime of job %d in state %v", j.ID, j.State))
	}
	return j.EndTime - j.SubmitTime
}

// QueueWait returns StartTime − DispatchTime for a Done job: the time spent
// waiting at the execution site for a processor and for data.
func (j *Job) QueueWait() float64 {
	if j.State != Done {
		panic(fmt.Sprintf("job: QueueWait of job %d in state %v", j.ID, j.State))
	}
	return j.StartTime - j.DispatchTime
}

// Advance transitions the job to next, enforcing the legal order
// Created → Submitted → Queued → Running → Done.
func (j *Job) Advance(next State, now desim.Time) {
	if next != j.State+1 {
		panic(fmt.Sprintf("job: illegal transition %v -> %v for job %d", j.State, next, j.ID))
	}
	j.State = next
	switch next {
	case Submitted:
		j.SubmitTime = now
	case Queued:
		j.DispatchTime = now
	case Running:
		j.StartTime = now
	case Done:
		j.EndTime = now
	}
}

// Fail returns the job to the Submitted state after a failure — placement
// onto a dead site (Submitted), loss of its queue slot to a site crash
// (Queued), or death of its compute element mid-run (Running). The failed
// site is recorded so the ES can avoid it on resubmission, and the
// original SubmitTime is kept: a retried job's response time includes
// every failed attempt.
func (j *Job) Fail(at topology.SiteID) {
	switch j.State {
	case Submitted, Queued, Running:
	default:
		panic(fmt.Sprintf("job: Fail of job %d in state %v", j.ID, j.State))
	}
	j.State = Submitted
	j.LastFailedSite = at
	j.Retries++
	j.Site = -1
	j.DispatchTime = -1
	j.DataReady = -1
	j.StartTime = -1
}
