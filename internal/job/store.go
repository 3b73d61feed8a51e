package job

import (
	"fmt"

	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// The first slab holds firstSlab jobs and each later one twice as many as
// the one before, up to maxSlab: a run with about a hundred live jobs
// makes 192 entries rather than 1,024, and a million-job run grows in
// 1,024-job steps. A slab is never resized or moved once made, so the
// *Job pointers handed out stay stable as the store grows.
const (
	firstSlab = 64
	maxSlab   = 1024
)

// recycled marks a freed job sitting on the Store's free list; any use of
// such a job is a lifecycle bug and panics loudly in the State machinery.
const recycled State = -1

// Store is a slab allocator for jobs: the struct-of-arrays job storage
// behind million-job runs. Jobs live in slabs that grow with the run — hot
// scheduling fields in one array, cold timestamps in a parallel array —
// and freed jobs go on a free list for reuse, so the steady-state
// dispatch→fetch→exec→complete loop allocates nothing per job: after the
// concurrency high-water mark is reached, every Alloc is a pop.
//
// Handles are ordinary *Job pointers (stable for the store's lifetime),
// so call sites are unchanged; only allocation and release go through the
// store. A job handle is valid from Alloc until Free; the core frees a
// job after its completion has been fully recorded.
type Store struct {
	fresh []Job  // the newest slab's entries not yet handed out
	free  []*Job // recycled entries, reused LIFO
	next  int    // fresh entries handed out so far (high-water mark)
	live  int    // entries allocated and not yet freed
}

// NewStore returns an empty job store.
func NewStore() *Store { return &Store{} }

// Alloc returns a job in the Created state, recycling a freed slot when
// one is available and growing by one slab otherwise.
func (s *Store) Alloc(id ID, user UserID, origin topology.SiteID, inputs []storage.FileID, compute float64) *Job {
	var j *Job
	if n := len(s.free); n > 0 {
		j = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		if len(s.fresh) == 0 {
			// The slabs so far hold firstSlab·(2^k − 1) entries, all
			// handed out, so doubling makes the next one next+firstSlab.
			s.fresh = newSlab(min(s.next+firstSlab, maxSlab))
		}
		j = &s.fresh[0]
		s.fresh = s.fresh[1:]
		s.next++
	}
	s.live++
	initJob(j, id, user, origin, inputs, compute)
	return j
}

// newSlab returns n store jobs: hot fields in one array, each pointing at
// its cold timestamps in a parallel one.
func newSlab(n int) []Job {
	hot := make([]Job, n)
	cold := make([]Times, n)
	for i := range hot {
		hot[i].Times = &cold[i]
		hot[i].fromStore = true
	}
	return hot
}

// Free returns a terminal job's slot to the store for reuse. The handle
// is dead after this call. Freeing a job twice, or one that did not come
// from a Store, panics.
func (s *Store) Free(j *Job) {
	if !j.fromStore {
		panic(fmt.Sprintf("job: Free of job %d not allocated from a Store", j.ID))
	}
	if j.State == recycled {
		panic(fmt.Sprintf("job: double Free of job %d", j.ID))
	}
	j.State = recycled
	j.Inputs = nil // owned by the workload; drop the reference
	s.free = append(s.free, j)
	s.live--
}

// Live returns how many jobs are currently allocated and not freed.
func (s *Store) Live() int { return s.live }

// HighWater returns how many distinct slots the store has ever handed
// out — the peak concurrent job footprint (allocation stops growing once
// the free list covers the steady state).
func (s *Store) HighWater() int { return s.next }
