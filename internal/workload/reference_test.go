package workload

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"reflect"
	"testing"

	"chicsim/internal/job"
	"chicsim/internal/rng"
	"chicsim/internal/storage"
	"chicsim/internal/topology"
)

// referenceGenerate is the materialising generator the flat form
// replaced: one JobSpec with its own Inputs slice per job, a map for
// duplicate inputs, and the geometric log1p(-p) computed on every draw.
// It fills Jobs and nothing else, so the accessors read it as a trace.
func referenceGenerate(spec Spec, src *rng.Source) *Workload {
	w := &Workload{
		Spec:       spec,
		FileSizes:  make([]float64, spec.Files),
		MasterSite: make([]topology.SiteID, spec.Files),
		UserHome:   make([]topology.SiteID, spec.Users),
		Jobs:       make([][]JobSpec, spec.Users),
	}
	fileSrc := src.Derive("files")
	for f := range w.FileSizes {
		w.FileSizes[f] = fileSrc.Range(spec.MinFileBytes, spec.MaxFileBytes)
		w.MasterSite[f] = topology.SiteID(fileSrc.Intn(spec.Sites))
	}
	for u := range w.UserHome {
		w.UserHome[u] = topology.SiteID(u % spec.Sites)
	}
	jobSrc := src.Derive("jobs")
	var zipf *rng.Zipf
	if spec.Popularity == Zipf {
		zipf = rng.NewZipf(jobSrc.Derive("zipf"), spec.ZipfAlpha, spec.Files)
	}
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
			for {
				u := jobSrc.Float64()
				rank = int(math.Floor(math.Log1p(-u) / math.Log1p(-spec.GeomP)))
				if rank < spec.Files {
					break
				}
			}
		case Zipf:
			rank = zipf.Draw()
		case Uniform:
			rank = jobSrc.Intn(spec.Files)
		}
		if spec.UserFocus > 0 && jobSrc.Float64() < spec.UserFocus {
			return storage.FileID(userRanks[user][rank])
		}
		return storage.FileID(rank)
	}
	id := job.ID(0)
	for n := 0; n < spec.TotalJobs; n++ {
		u := n % spec.Users
		inputs := make([]storage.FileID, 0, spec.InputsPerJob)
		seen := make(map[storage.FileID]bool, spec.InputsPerJob)
		for len(inputs) < spec.InputsPerJob {
			f := draw(u)
			if seen[f] {
				continue
			}
			seen[f] = true
			inputs = append(inputs, f)
		}
		totalGB := 0.0
		for _, f := range inputs {
			totalGB += w.FileSizes[f] / 1e9
		}
		w.Jobs[u] = append(w.Jobs[u], JobSpec{
			ID:      id,
			User:    job.UserID(u),
			Inputs:  inputs,
			Compute: spec.ComputePerGB * totalGB,
		})
		id++
	}
	return w
}

// referenceWriteTrace is WriteTrace as it read over Jobs.
func referenceWriteTrace(w *Workload, out io.Writer) error {
	bw := bufio.NewWriter(out)
	enc := json.NewEncoder(bw)
	header := struct {
		Spec       Spec              `json:"spec"`
		FileSizes  []float64         `json:"file_sizes"`
		MasterSite []topology.SiteID `json:"master_site"`
		UserHome   []topology.SiteID `json:"user_home"`
	}{w.Spec, w.FileSizes, w.MasterSite, w.UserHome}
	if err := enc.Encode(header); err != nil {
		return err
	}
	for _, js := range w.Jobs {
		for _, j := range js {
			if err := enc.Encode(j); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// randomSpec draws a small spec whose job count is not a multiple of its
// user count, so some users submit one job more than others.
func randomSpec(src *rng.Source, pop Popularity, inputs int, focus float64) Spec {
	users := src.IntRange(2, 30)
	jobs := users*src.IntRange(1, 40) + src.IntRange(1, users-1)
	return Spec{
		Users:        users,
		Sites:        src.IntRange(1, 10),
		Files:        src.IntRange(inputs, 120),
		TotalJobs:    jobs,
		MinFileBytes: 0.5e9,
		MaxFileBytes: src.Range(0.5e9, 4e9),
		ComputePerGB: src.Range(1, 600),
		Popularity:   pop,
		GeomP:        src.Range(0.01, 0.5),
		ZipfAlpha:    src.Range(0, 2),
		InputsPerJob: inputs,
		UserFocus:    focus,
	}
}

func TestFlatMatchesReference(t *testing.T) {
	specSrc := rng.New(2024)
	for _, pop := range []Popularity{Geometric, Zipf, Uniform} {
		for inputs := 1; inputs <= 4; inputs++ {
			for _, focus := range []float64{0, 0.5} {
				spec := randomSpec(specSrc, pop, inputs, focus)
				seed := specSrc.Uint64()
				name := fmt.Sprintf("%v/inputs=%d/focus=%v", pop, inputs, focus)
				t.Run(name, func(t *testing.T) {
					got, err := Generate(spec, rng.New(seed))
					if err != nil {
						t.Fatal(err)
					}
					want := referenceGenerate(spec, rng.New(seed))
					compareToReference(t, got, want)
				})
			}
		}
	}
}

func compareToReference(t *testing.T, got, want *Workload) {
	t.Helper()
	if !reflect.DeepEqual(got.FileSizes, want.FileSizes) ||
		!reflect.DeepEqual(got.MasterSite, want.MasterSite) ||
		!reflect.DeepEqual(got.UserHome, want.UserHome) {
		t.Fatal("file metadata or user homes differ")
	}
	total := 0
	for u, js := range want.Jobs {
		if got.Count(u) != len(js) {
			t.Fatalf("Count(%d) = %d, want %d", u, got.Count(u), len(js))
		}
		for k, wj := range js {
			gj := got.Job(u, k)
			if gj.ID != wj.ID || gj.User != wj.User ||
				!reflect.DeepEqual(gj.Inputs, wj.Inputs) ||
				math.Float64bits(gj.Compute) != math.Float64bits(wj.Compute) {
				t.Fatalf("Job(%d, %d) = %+v, want %+v", u, k, gj, wj)
			}
			if cap(gj.Inputs) != len(gj.Inputs) {
				t.Fatalf("Job(%d, %d).Inputs has spare capacity %d", u, k, cap(gj.Inputs)-len(gj.Inputs))
			}
		}
		total += len(js)
	}
	if got.TotalJobs() != total {
		t.Fatalf("TotalJobs = %d, want %d", got.TotalJobs(), total)
	}
	wantHist := make([]int, len(want.FileSizes))
	for _, js := range want.Jobs {
		for _, j := range js {
			for _, f := range j.Inputs {
				wantHist[f]++
			}
		}
	}
	if !reflect.DeepEqual(got.PopularityHistogram(), wantHist) {
		t.Fatal("PopularityHistogram differs")
	}
	if !reflect.DeepEqual(got.Materialize(), want.Jobs) {
		t.Fatal("Materialize differs from the reference jobs")
	}
	var gotTrace, wantTrace bytes.Buffer
	if err := got.WriteTrace(&gotTrace); err != nil {
		t.Fatal(err)
	}
	if err := referenceWriteTrace(want, &wantTrace); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(gotTrace.Bytes(), wantTrace.Bytes()) {
		t.Fatal("WriteTrace bytes differ")
	}
}
