package site

import (
	"fmt"
	"slices"
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/scheduler"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// refWindow is a map-based model of one popularity window: per-file access
// counts and per-requester counts, with each file's requesters in the
// order they first asked.
type refWindow struct {
	count map[storage.FileID]int
	reqs  map[storage.FileID]map[topology.SiteID]int
	order map[storage.FileID][]topology.SiteID
}

func newRefWindow() *refWindow {
	return &refWindow{
		count: map[storage.FileID]int{},
		reqs:  map[storage.FileID]map[topology.SiteID]int{},
		order: map[storage.FileID][]topology.SiteID{},
	}
}

func (w *refWindow) record(f storage.FileID, requester topology.SiteID) {
	w.count[f]++
	if w.reqs[f] == nil {
		w.reqs[f] = map[topology.SiteID]int{}
	}
	if w.reqs[f][requester] == 0 {
		w.order[f] = append(w.order[f], requester)
	}
	w.reqs[f][requester]++
}

// drain is what DrainPopularity must return: the window's files resident
// now, most accessed first, ties by file id.
func (w *refWindow) drain(resident func(storage.FileID) bool) []scheduler.PopularFile {
	var files []storage.FileID
	for f := range w.count {
		files = append(files, f)
	}
	slices.Sort(files)
	var out []scheduler.PopularFile
	for _, f := range files {
		if !resident(f) {
			continue
		}
		p := scheduler.PopularFile{File: f, Count: w.count[f]}
		for _, r := range w.order[f] {
			p.ByRequester = append(p.ByRequester, scheduler.RequesterCount{Site: r, Count: w.reqs[f][r]})
		}
		out = append(out, p)
	}
	slices.SortStableFunc(out, func(a, b scheduler.PopularFile) int { return b.Count - a.Count })
	return out
}

func copyPopular(in []scheduler.PopularFile) []scheduler.PopularFile {
	out := slices.Clone(in)
	for i := range out {
		out[i].ByRequester = slices.Clone(out[i].ByRequester)
	}
	return out
}

func samePopular(a, b []scheduler.PopularFile) bool {
	return slices.EqualFunc(a, b, func(x, y scheduler.PopularFile) bool {
		return x.File == y.File && x.Count == y.Count && slices.Equal(x.ByRequester, y.ByRequester)
	})
}

// refAger is the DS deletion role as the core ran it before idle ages
// moved into the site: a map of consecutive idle windows per file, aged
// through the site's public surface.
type refAger struct{ windows map[storage.FileID]int }

func (r *refAger) age(s *Site, accessed []scheduler.PopularFile, after int) int {
	touched := map[storage.FileID]bool{}
	for _, p := range accessed {
		touched[p.File] = true
		delete(r.windows, p.File)
	}
	deleted := 0
	for _, f := range s.CachedIdleFiles() {
		if touched[f] {
			continue
		}
		r.windows[f]++
		if r.windows[f] >= after {
			if s.DeleteReplica(f) {
				deleted++
			}
			delete(r.windows, f)
		}
	}
	return deleted
}

// windowLog is what one scripted run observed at each DS wake.
type windowLog struct {
	drained  []scheduler.PopularFile
	deleted  int
	resident []storage.FileID
	done     int
}

// runWindows drives a site under storage pressure through DS windows of
// random local jobs and remote requests, with crashes between some
// windows. Each window ends in a drain, checked against the map model
// (and the previous drain's output checked for having survived the
// window), and then in a call to age. The script depends on seed alone,
// so two runs with agers that agree see identical sites.
func runWindows(t *testing.T, seed uint64, age func(*Site, []scheduler.PopularFile) int) []windowLog {
	t.Helper()
	src := rng.New(seed)
	// Every third seed leaves room for about one cached replica beside
	// the masters, so arrivals for pinned-out waiters are staged
	// transiently; the others cache several, so replicas age.
	capacity := 12e9
	if seed%3 == 0 {
		capacity = 4e9
	}
	fx := newFixture(t, 2, capacity, 15)
	const files = 14
	for f := storage.FileID(0); f < files; f++ {
		master := topology.SiteID(1 + src.Intn(3))
		if f < 2 {
			master = 0
		}
		fx.defineFile(t, f, src.Range(0.5e9, 2e9), master)
	}
	var logs []windowLog
	var prev, prevCopy []scheduler.PopularFile
	ref := newRefWindow()
	for w := 0; w < 40; w++ {
		for e := 0; e < 1+src.Intn(12); e++ {
			f := storage.FileID(src.Intn(files))
			if src.Intn(3) == 0 {
				// Remote fetchers beyond the fixture's four sites make
				// requester runs long enough to outgrow their room.
				r := topology.SiteID(src.Intn(9))
				fx.site.RecordRemoteRequest(f, r)
				ref.record(f, r)
			} else {
				inputs := []storage.FileID{f}
				if g := storage.FileID(src.Intn(files)); g != f && src.Intn(3) == 0 {
					inputs = append(inputs, g)
				}
				origin := topology.SiteID(src.Intn(4))
				j := job.New(job.ID(1000+len(logs)*100+e), 0, origin, inputs, src.Range(1, 30))
				j.Advance(job.Submitted, fx.eng.Now())
				fx.site.Enqueue(j)
				for _, in := range inputs {
					ref.record(in, origin)
				}
			}
			fx.eng.RunUntil(fx.eng.Now() + src.Range(0, 20))
		}
		fx.eng.RunUntil(fx.eng.Now() + src.Range(0, 120))
		if w > 0 && !samePopular(prev, prevCopy) {
			t.Fatalf("window %d: the previous drain changed before this one: %v, was %v", w, prev, prevCopy)
		}
		got := fx.site.DrainPopularity()
		if want := ref.drain(fx.site.Store().Peek); !samePopular(got, want) {
			t.Fatalf("window %d: DrainPopularity = %v, want %v", w, got, want)
		}
		if !fx.site.WindowEmpty() {
			t.Fatalf("window %d: window not empty after a drain", w)
		}
		prev, prevCopy = got, copyPopular(got)
		ref = newRefWindow()
		deleted := age(fx.site, got)
		logs = append(logs, windowLog{copyPopular(got), deleted, fx.site.Store().Resident(), len(fx.done)})
		if src.Intn(5) == 0 {
			fx.site.Crash(true)
			fx.site.Recover()
		}
	}
	return logs
}

// TestDrainPopularityMatchesMapReference pins DrainPopularity's output,
// order, counts and requester runs, against a map model across DS
// windows, crashes between them included; and AgeIdleReplicas against
// the core's former map-based aging: the same drains, deletions, resident
// sets and completed jobs at every wake.
func TestDrainPopularityMatchesMapReference(t *testing.T) {
	for seed := uint64(1); seed <= 25; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			for _, after := range []int{1, 2, 3} {
				ra := &refAger{windows: map[storage.FileID]int{}}
				want := runWindows(t, seed, func(s *Site, p []scheduler.PopularFile) int { return ra.age(s, p, after) })
				got := runWindows(t, seed, func(s *Site, p []scheduler.PopularFile) int { return s.AgeIdleReplicas(p, after) })
				deleted := 0
				for w := range want {
					g, x := got[w], want[w]
					if !samePopular(g.drained, x.drained) || g.deleted != x.deleted || !slices.Equal(g.resident, x.resident) || g.done != x.done {
						t.Fatalf("after=%d, window %d: got %+v, reference %+v", after, w, g, x)
					}
					deleted += x.deleted
				}
				if deleted == 0 && seed%3 != 0 {
					t.Fatalf("after=%d: no replica aged out; the script exercises nothing", after)
				}
			}
		})
	}
}
