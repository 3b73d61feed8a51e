// Package workload generates the synthetic Data Grid workloads of the
// paper's §5.1 and reads/writes them as trace files.
//
// Parameters follow Table 1 and the surrounding prose: dataset sizes are
// uniform in [500 MB, 2 GB] with one initial replica each, users are mapped
// evenly across sites and submit jobs in strict sequence, each job needs
// one input file and computes for 300 s per GB of input, and the files a
// user requests follow a geometric distribution over dataset ranks
// (Figure 2). Zipf and uniform popularity plus multi-input jobs are
// extensions.
package workload

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"slices"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// Popularity selects the dataset-popularity distribution.
type Popularity int

const (
	// Geometric is the paper's distribution (Figure 2).
	Geometric Popularity = iota
	// Zipf popularity (extension).
	Zipf
	// Uniform popularity (extension; every dataset equally likely).
	Uniform
)

func (p Popularity) String() string {
	switch p {
	case Geometric:
		return "geometric"
	case Zipf:
		return "zipf"
	case Uniform:
		return "uniform"
	default:
		return fmt.Sprintf("Popularity(%d)", int(p))
	}
}

// Spec describes a workload to generate.
type Spec struct {
	Users     int // total users, mapped evenly across sites
	Sites     int
	Files     int
	TotalJobs int // jobs across all users (paper: 6000)

	MinFileBytes float64 // paper: 500 MB
	MaxFileBytes float64 // paper: 2 GB
	ComputePerGB float64 // seconds of compute per GB of input (paper: 300)

	Popularity Popularity
	GeomP      float64 // geometric parameter (core default 0.1; see DESIGN.md)
	ZipfAlpha  float64 // zipf exponent (extension)

	InputsPerJob int // 1 in the paper; > 1 is the multi-file extension

	// UserFocus (extension) blends community-wide popularity with
	// per-user working sets: with probability UserFocus a job's input is
	// drawn from the user's private rank permutation instead of the
	// shared ranking. 0 (the paper) means every user samples the same
	// community distribution; 1 gives fully personal working sets (no
	// community hotspots). Must be in [0, 1].
	UserFocus float64
}

// Validate checks the spec for consistency.
func (s *Spec) Validate() error {
	switch {
	case s.Users <= 0:
		return fmt.Errorf("workload: Users = %d", s.Users)
	case s.Sites <= 0:
		return fmt.Errorf("workload: Sites = %d", s.Sites)
	case s.Files <= 0:
		return fmt.Errorf("workload: Files = %d", s.Files)
	case s.Files > math.MaxInt32:
		return fmt.Errorf("workload: Files = %d exceeds the file id range %d", s.Files, math.MaxInt32)
	case s.TotalJobs <= 0:
		return fmt.Errorf("workload: TotalJobs = %d", s.TotalJobs)
	case s.MinFileBytes <= 0 || s.MaxFileBytes < s.MinFileBytes:
		return fmt.Errorf("workload: file size range [%v, %v]", s.MinFileBytes, s.MaxFileBytes)
	case s.ComputePerGB <= 0:
		return fmt.Errorf("workload: ComputePerGB = %v", s.ComputePerGB)
	case s.Popularity == Geometric && (s.GeomP <= 0 || s.GeomP >= 1):
		return fmt.Errorf("workload: GeomP = %v", s.GeomP)
	case s.Popularity == Zipf && s.ZipfAlpha < 0:
		return fmt.Errorf("workload: ZipfAlpha = %v", s.ZipfAlpha)
	case s.InputsPerJob < 1:
		return fmt.Errorf("workload: InputsPerJob = %d", s.InputsPerJob)
	case s.InputsPerJob > s.Files:
		// A job's inputs are distinct, so drawing them would never end.
		return fmt.Errorf("workload: InputsPerJob = %d exceeds Files = %d", s.InputsPerJob, s.Files)
	case s.UserFocus < 0 || s.UserFocus > 1:
		return fmt.Errorf("workload: UserFocus = %v, must be in [0, 1]", s.UserFocus)
	}
	return nil
}

// JobSpec is one generated job, before being instantiated as a *job.Job.
type JobSpec struct {
	ID      job.ID           `json:"id"`
	User    job.UserID       `json:"user"`
	Inputs  []storage.FileID `json:"inputs"`
	Compute float64          `json:"compute_sec"`
}

// Workload is a fully generated scenario: file metadata, master placement,
// user homes, and each user's job sequence, read through Count and Job.
//
// A generated workload stores only its input ids, InputsPerJob per job,
// user by user and each user's jobs in sequence, and derives the rest:
// user u's k-th job has ID k·Users+u, and its compute time follows from
// its inputs' sizes. A trace's IDs, compute times and order are
// arbitrary, so ReadTrace keeps them in Jobs.
type Workload struct {
	Spec       Spec              `json:"spec"`
	FileSizes  []float64         `json:"file_sizes"`  // bytes, by FileID
	MasterSite []topology.SiteID `json:"master_site"` // initial replica per file
	UserHome   []topology.SiteID `json:"user_home"`   // by UserID
	Jobs       [][]JobSpec       `json:"jobs"`        // [user][sequence]: a trace's jobs; Generate leaves it nil

	// Generated only: InputsPerJob file ids per job, stored user by user
	// (see jobInputs). Every user has jobsPer jobs, the first longUsers
	// one more.
	inputs             []storage.FileID
	jobsPer, longUsers int
}

// Generate builds a workload from the spec using the given random stream.
// Dataset rank equals FileID: lower ids are more popular (the mapping of
// ids to sites is itself uniform, so this loses no generality).
func Generate(spec Spec, src *rng.Source) (*Workload, error) {
	w := new(Workload)
	if err := w.Regenerate(spec, src); err != nil {
		return nil, err
	}
	return w, nil
}

// Regenerate overwrites w with the workload Generate(spec, src) returns,
// in w's own arrays where they are large enough. Slices taken from w
// before the call see the new workload's values.
func (w *Workload) Regenerate(spec Spec, src *rng.Source) error {
	if err := spec.Validate(); err != nil {
		return err
	}
	*w = Workload{
		Spec:       spec,
		FileSizes:  resized(w.FileSizes, spec.Files),
		MasterSite: resized(w.MasterSite, spec.Files),
		UserHome:   resized(w.UserHome, spec.Users),
		inputs:     resized(w.inputs, spec.TotalJobs*spec.InputsPerJob),
		jobsPer:    spec.TotalJobs / spec.Users,
		longUsers:  spec.TotalJobs % spec.Users,
	}
	fileSrc := src.Derive("files")
	for f := range w.FileSizes {
		w.FileSizes[f] = fileSrc.Range(spec.MinFileBytes, spec.MaxFileBytes)
		w.MasterSite[f] = topology.SiteID(fileSrc.Intn(spec.Sites))
	}
	for u := range w.UserHome {
		w.UserHome[u] = topology.SiteID(u % spec.Sites) // mapped evenly
	}

	jobSrc := src.Derive("jobs")
	var zipf *rng.Zipf
	var geom *rng.Geometric
	switch spec.Popularity {
	case Zipf:
		zipf = rng.NewZipf(jobSrc.Derive("zipf"), spec.ZipfAlpha, spec.Files)
	case Geometric:
		geom = rng.NewGeometric(jobSrc, spec.GeomP, spec.Files)
	}
	// Per-user rank permutations for the UserFocus extension: a user's
	// private working set reinterprets rank k as their own k-th favorite.
	var userRanks [][]int
	if spec.UserFocus > 0 {
		permSrc := src.Derive("user-ranks")
		userRanks = make([][]int, spec.Users)
		for u := range userRanks {
			perm := make([]int, spec.Files)
			for i := range perm {
				perm[i] = i
			}
			rng.Shuffle(permSrc, perm)
			userRanks[u] = perm
		}
	}
	draw := func(user int) storage.FileID {
		var rank int
		switch spec.Popularity {
		case Geometric:
			rank = geom.Draw()
		case Zipf:
			rank = zipf.Draw()
		case Uniform:
			rank = jobSrc.Intn(spec.Files)
		default:
			panic("workload: unknown popularity distribution")
		}
		if spec.UserFocus > 0 && jobSrc.Float64() < spec.UserFocus {
			return storage.FileID(userRanks[user][rank])
		}
		return storage.FileID(rank)
	}

	// Jobs are drawn in ID order and dealt round-robin, so users get ±1
	// of each other; each is stored at its user's slot.
	for n := 0; n < spec.TotalJobs; n++ {
		u := n % spec.Users
		inputs := w.jobInputs(u, n/spec.Users)[:0]
		for len(inputs) < spec.InputsPerJob {
			f := draw(u)
			if slices.Contains(inputs, f) {
				continue // distinct inputs per job
			}
			inputs = append(inputs, f)
		}
	}
	return nil
}

// resized returns buf with length n, in buf's array when it is large
// enough; the caller overwrites every entry.
func resized[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}

// jobInputs returns the stored inputs of a generated workload's user u's
// k-th job, capped at their own length so that an append cannot reach the
// next job's. User u's jobs take the slots from u·⌊J/U⌋ + min(u, J mod U),
// J jobs over U users, so consecutive jobs of a user share cache lines.
func (w *Workload) jobInputs(u, k int) []storage.FileID {
	per := w.Spec.InputsPerJob
	slot := u*w.jobsPer + min(u, w.longUsers) + k
	return w.inputs[slot*per : (slot+1)*per : (slot+1)*per]
}

// users returns the number of job sequences the workload holds.
func (w *Workload) users() int {
	if w.inputs == nil {
		return len(w.Jobs)
	}
	return w.Spec.Users
}

// Count returns the number of jobs user u submits.
func (w *Workload) Count(u int) int {
	if w.inputs == nil {
		return len(w.Jobs[u])
	}
	if u < w.longUsers {
		return w.jobsPer + 1
	}
	return w.jobsPer
}

// Job returns user u's k-th job, 0 ≤ k < Count(u). Its Inputs are shared
// with the workload: read them, never write them.
func (w *Workload) Job(u, k int) JobSpec {
	if w.inputs == nil {
		return w.Jobs[u][k]
	}
	inputs := w.jobInputs(u, k)
	totalGB := 0.0
	for _, f := range inputs {
		totalGB += w.FileSizes[f] / 1e9
	}
	return JobSpec{
		ID:      job.ID(k*w.Spec.Users + u),
		User:    job.UserID(u),
		Inputs:  inputs,
		Compute: w.Spec.ComputePerGB * totalGB,
	}
}

// Materialize returns every job as [user][sequence], the form ReadTrace
// fills Jobs with: a trace's Jobs itself, or for a generated workload a
// new slice built on each call.
func (w *Workload) Materialize() [][]JobSpec {
	if w.inputs == nil {
		return w.Jobs
	}
	jobs := make([][]JobSpec, w.users())
	for u := range jobs {
		jobs[u] = make([]JobSpec, w.Count(u))
		for k := range jobs[u] {
			jobs[u][k] = w.Job(u, k)
		}
	}
	return jobs
}

// TotalJobs returns the number of jobs in the workload.
func (w *Workload) TotalJobs() int {
	n := 0
	for u := 0; u < w.users(); u++ {
		n += w.Count(u)
	}
	return n
}

// PopularityHistogram counts requests per dataset across the whole
// workload — the reproduction of Figure 2.
func (w *Workload) PopularityHistogram() []int {
	h := make([]int, len(w.FileSizes))
	for u := 0; u < w.users(); u++ {
		for k := 0; k < w.Count(u); k++ {
			for _, f := range w.Job(u, k).Inputs {
				h[f]++
			}
		}
	}
	return h
}

// WriteTrace serializes the workload as JSON-lines: a header line with the
// scenario, then one line per job, user by user and each user's jobs in
// submission order. The format is the hook for replaying real traces (the
// paper's planned Fermi workloads) through the same pipeline.
func (w *Workload) WriteTrace(out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	header := traceHeader{w.Spec, w.FileSizes, w.MasterSite, w.UserHome}
	if err := enc.Encode(header); err != nil {
		return fmt.Errorf("workload: writing header: %w", err)
	}
	for u := 0; u < w.users(); u++ {
		for k := 0; k < w.Count(u); k++ {
			j := w.Job(u, k)
			if err := enc.Encode(j); err != nil {
				return fmt.Errorf("workload: writing job %d: %w", j.ID, err)
			}
		}
	}
	return bw.Flush()
}

// traceHeader is the first line of a workload trace.
type traceHeader struct {
	Spec       Spec              `json:"spec"`
	FileSizes  []float64         `json:"file_sizes"`
	MasterSite []topology.SiteID `json:"master_site"`
	UserHome   []topology.SiteID `json:"user_home"`
}

// check rejects a header the simulation cannot be built from: every
// user needs a home site and every file a size and a master site, all
// within the grid.
func (h *traceHeader) check() error {
	users, sites := h.Spec.Users, h.Spec.Sites
	switch {
	case users <= 0 || sites <= 0:
		return fmt.Errorf("workload: trace header has %d users and %d sites, want both positive", users, sites)
	case len(h.UserHome) != users:
		return fmt.Errorf("workload: trace header has %d user_home entries for %d users", len(h.UserHome), users)
	case len(h.MasterSite) != len(h.FileSizes):
		return fmt.Errorf("workload: trace header has %d master_site entries for %d file_sizes",
			len(h.MasterSite), len(h.FileSizes))
	}
	for u, home := range h.UserHome {
		if home < 0 || int(home) >= sites {
			return fmt.Errorf("workload: trace header puts user %d at site %d of %d", u, home, sites)
		}
	}
	for f, size := range h.FileSizes {
		if size <= 0 || math.IsInf(size, 1) || math.IsNaN(size) {
			return fmt.Errorf("workload: trace header gives file %d size %v, want positive and finite", f, size)
		}
		if m := h.MasterSite[f]; m < 0 || int(m) >= sites {
			return fmt.Errorf("workload: trace header puts file %d's master at site %d of %d", f, m, sites)
		}
	}
	return nil
}

// ReadTrace parses a trace produced by WriteTrace.
func ReadTrace(in io.Reader) (*Workload, error) {
	dec := json.NewDecoder(in)
	var header traceHeader
	if err := dec.Decode(&header); err != nil {
		return nil, fmt.Errorf("workload: reading header: %w", err)
	}
	if err := header.check(); err != nil {
		return nil, err
	}
	w := &Workload{
		Spec:       header.Spec,
		FileSizes:  header.FileSizes,
		MasterSite: header.MasterSite,
		UserHome:   header.UserHome,
		Jobs:       make([][]JobSpec, header.Spec.Users),
	}
	for {
		var j JobSpec
		if err := dec.Decode(&j); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("workload: reading job: %w", err)
		}
		if int(j.User) < 0 || int(j.User) >= len(w.Jobs) {
			return nil, fmt.Errorf("workload: job %d has out-of-range user %d", j.ID, j.User)
		}
		for _, f := range j.Inputs {
			if int(f) < 0 || int(f) >= len(w.FileSizes) {
				return nil, fmt.Errorf("workload: job %d references undefined file %d", j.ID, f)
			}
		}
		if j.Compute < 0 || math.IsNaN(j.Compute) {
			return nil, fmt.Errorf("workload: job %d has invalid compute time %v", j.ID, j.Compute)
		}
		w.Jobs[j.User] = append(w.Jobs[j.User], j)
	}
	return w, nil
}
