package workload

import (
	"bytes"
	"math"
	"testing"
	"testing/quick"

	"chicsim/internal/rng"
	"chicsim/internal/storage"
)

func baseSpec() Spec {
	return Spec{
		Users:        12,
		Sites:        6,
		Files:        40,
		TotalJobs:    600,
		MinFileBytes: 0.5e9,
		MaxFileBytes: 2e9,
		ComputePerGB: 300,
		Popularity:   Geometric,
		GeomP:        0.1,
		InputsPerJob: 1,
	}
}

func TestGenerateBasics(t *testing.T) {
	w, err := Generate(baseSpec(), rng.New(1))
	if err != nil {
		t.Fatal(err)
	}
	if w.TotalJobs() != 600 {
		t.Fatalf("TotalJobs = %d", w.TotalJobs())
	}
	if len(w.FileSizes) != 40 || len(w.MasterSite) != 40 {
		t.Fatal("file metadata sizes wrong")
	}
	for f, size := range w.FileSizes {
		if size < 0.5e9 || size >= 2e9 {
			t.Fatalf("file %d size %v out of range", f, size)
		}
		if w.MasterSite[f] < 0 || int(w.MasterSite[f]) >= 6 {
			t.Fatalf("file %d master %d invalid", f, w.MasterSite[f])
		}
	}
	// Users mapped evenly: user u at site u mod sites.
	for u, home := range w.UserHome {
		if int(home) != u%6 {
			t.Fatalf("user %d home %d", u, home)
		}
	}
	// Jobs dealt evenly: 600/12 = 50 each.
	for u := 0; u < 12; u++ {
		if n := w.Count(u); n != 50 {
			t.Fatalf("user %d has %d jobs", u, n)
		}
	}
}

func TestComputeTimeFollowsSize(t *testing.T) {
	w, err := Generate(baseSpec(), rng.New(2))
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range w.Materialize() {
		for _, j := range js {
			want := 300 * w.FileSizes[j.Inputs[0]] / 1e9
			if math.Abs(j.Compute-want) > 1e-9 {
				t.Fatalf("job %d compute %v, want %v", j.ID, j.Compute, want)
			}
		}
	}
}

func TestUniqueSequentialIDs(t *testing.T) {
	w, _ := Generate(baseSpec(), rng.New(3))
	seen := make(map[int]bool)
	for _, js := range w.Materialize() {
		for _, j := range js {
			if seen[int(j.ID)] {
				t.Fatalf("duplicate job id %d", j.ID)
			}
			seen[int(j.ID)] = true
		}
	}
	if len(seen) != 600 {
		t.Fatalf("ids = %d", len(seen))
	}
}

func TestGeometricConcentration(t *testing.T) {
	w, _ := Generate(baseSpec(), rng.New(4))
	h := w.PopularityHistogram()
	head := 0
	for i := 0; i < 10; i++ {
		head += h[i]
	}
	// p=0.1: first 10 ranks carry ~65% of requests.
	frac := float64(head) / 600
	if frac < 0.5 {
		t.Fatalf("head mass = %v, geometric concentration lost", frac)
	}
	if h[0] < h[20] {
		t.Fatal("histogram not decaying")
	}
}

func TestUniformPopularity(t *testing.T) {
	spec := baseSpec()
	spec.Popularity = Uniform
	spec.TotalJobs = 8000
	w, err := Generate(spec, rng.New(5))
	if err != nil {
		t.Fatal(err)
	}
	h := w.PopularityHistogram()
	for f, c := range h {
		if c == 0 {
			t.Fatalf("uniform popularity never chose file %d", f)
		}
	}
}

func TestZipfPopularity(t *testing.T) {
	spec := baseSpec()
	spec.Popularity = Zipf
	spec.ZipfAlpha = 1.2
	w, err := Generate(spec, rng.New(6))
	if err != nil {
		t.Fatal(err)
	}
	h := w.PopularityHistogram()
	if h[0] <= h[20] {
		t.Fatal("zipf head not dominant")
	}
}

func TestMultiInputDistinct(t *testing.T) {
	spec := baseSpec()
	spec.InputsPerJob = 3
	w, err := Generate(spec, rng.New(7))
	if err != nil {
		t.Fatal(err)
	}
	for _, js := range w.Materialize() {
		for _, j := range js {
			if len(j.Inputs) != 3 {
				t.Fatalf("job %d has %d inputs", j.ID, len(j.Inputs))
			}
			seen := map[int]bool{}
			for _, f := range j.Inputs {
				if seen[int(f)] {
					t.Fatalf("job %d repeats input %d", j.ID, f)
				}
				seen[int(f)] = true
			}
		}
	}
}

func TestUserFocusSpreadsDemand(t *testing.T) {
	// Full user focus destroys community hotspots: request mass spreads
	// over far more distinct files than the shared geometric ranking.
	shared := baseSpec()
	shared.TotalJobs = 4000
	wShared, err := Generate(shared, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	focused := shared
	focused.UserFocus = 1
	wFocused, err := Generate(focused, rng.New(21))
	if err != nil {
		t.Fatal(err)
	}
	distinct := func(w *Workload) int {
		n := 0
		for _, c := range w.PopularityHistogram() {
			if c > 0 {
				n++
			}
		}
		return n
	}
	// Peak concentration: requests for the single hottest file.
	peak := func(w *Workload) int {
		p := 0
		for _, c := range w.PopularityHistogram() {
			if c > p {
				p = c
			}
		}
		return p
	}
	if distinct(wFocused) < distinct(wShared) {
		t.Fatalf("focus reduced coverage: %d vs %d files", distinct(wFocused), distinct(wShared))
	}
	if peak(wFocused) >= peak(wShared) {
		t.Fatalf("focus did not flatten the hotspot: peak %d vs %d", peak(wFocused), peak(wShared))
	}
	// Each user individually still concentrates on a small working set.
	perUserTop := func(w *Workload, u int) float64 {
		counts := map[storage.FileID]int{}
		for k := 0; k < w.Count(u); k++ {
			counts[w.Job(u, k).Inputs[0]]++
		}
		top, total := 0, 0
		for _, c := range counts {
			total += c
			if c > top {
				top = c
			}
		}
		return float64(top) / float64(total)
	}
	if perUserTop(wFocused, 0) < 0.05 {
		t.Fatalf("focused user has no working set: top fraction %v", perUserTop(wFocused, 0))
	}
}

func TestUserFocusValidation(t *testing.T) {
	spec := baseSpec()
	spec.UserFocus = -0.1
	if _, err := Generate(spec, rng.New(1)); err == nil {
		t.Fatal("negative focus accepted")
	}
	spec.UserFocus = 1.5
	if _, err := Generate(spec, rng.New(1)); err == nil {
		t.Fatal("focus > 1 accepted")
	}
}

func TestValidation(t *testing.T) {
	bad := []func(*Spec){
		func(s *Spec) { s.Users = 0 },
		func(s *Spec) { s.Sites = 0 },
		func(s *Spec) { s.Files = -1 },
		func(s *Spec) { s.TotalJobs = 0 },
		func(s *Spec) { s.MinFileBytes = 0 },
		func(s *Spec) { s.MaxFileBytes = s.MinFileBytes - 1 },
		func(s *Spec) { s.ComputePerGB = 0 },
		func(s *Spec) { s.GeomP = 0 },
		func(s *Spec) { s.GeomP = 1 },
		func(s *Spec) { s.InputsPerJob = 0 },
		func(s *Spec) { s.InputsPerJob = s.Files + 1 },
	}
	for i, mutate := range bad {
		spec := baseSpec()
		mutate(&spec)
		if _, err := Generate(spec, rng.New(1)); err == nil {
			t.Errorf("case %d: expected validation error", i)
		}
	}
}

// A generated workload is one slice of input ids sized up front: how
// many allocations Generate makes must not depend on the job count.
func TestGenerateAllocsIndependentOfJobs(t *testing.T) {
	allocs := func(jobs int) float64 {
		spec := baseSpec()
		spec.TotalJobs = jobs
		spec.InputsPerJob = 2
		spec.UserFocus = 0.5
		return testing.AllocsPerRun(3, func() {
			if _, err := Generate(spec, rng.New(1)); err != nil {
				t.Fatal(err)
			}
		})
	}
	if small, large := allocs(10_000), allocs(100_000); small != large {
		t.Fatalf("Generate allocates %v times at 10k jobs, %v at 100k", small, large)
	}
}

func TestDeterminism(t *testing.T) {
	wa, _ := Generate(baseSpec(), rng.New(9))
	wb, _ := Generate(baseSpec(), rng.New(9))
	a, b := wa.Materialize(), wb.Materialize()
	for u := range a {
		for i := range a[u] {
			if a[u][i].Inputs[0] != b[u][i].Inputs[0] {
				t.Fatal("generation not deterministic")
			}
		}
	}
	wc, _ := Generate(baseSpec(), rng.New(10))
	c := wc.Materialize()
	same := 0
	total := 0
	for u := range a {
		for i := range a[u] {
			total++
			if a[u][i].Inputs[0] == c[u][i].Inputs[0] {
				same++
			}
		}
	}
	if same == total {
		t.Fatal("different seeds produced identical workloads")
	}
}

func TestTraceRoundTrip(t *testing.T) {
	w, _ := Generate(baseSpec(), rng.New(11))
	var buf bytes.Buffer
	if err := w.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	w2, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if w2.TotalJobs() != w.TotalJobs() {
		t.Fatalf("jobs %d != %d", w2.TotalJobs(), w.TotalJobs())
	}
	if len(w2.FileSizes) != len(w.FileSizes) {
		t.Fatal("file metadata lost")
	}
	for u := 0; u < w.Spec.Users; u++ {
		for i := 0; i < w.Count(u); i++ {
			a, b := w.Job(u, i), w2.Job(u, i)
			if a.ID != b.ID || a.Inputs[0] != b.Inputs[0] || a.Compute != b.Compute {
				t.Fatalf("job mismatch at user %d index %d", u, i)
			}
		}
	}
}

func TestReadTraceErrors(t *testing.T) {
	if _, err := ReadTrace(bytes.NewBufferString("not json")); err == nil {
		t.Fatal("expected header error")
	}
	w, _ := Generate(baseSpec(), rng.New(12))
	var buf bytes.Buffer
	w.WriteTrace(&buf)
	// Corrupt a job's user to an out-of-range value.
	s := buf.String()
	s = s[:len(s)-1] + "\n" + `{"id":9999,"user":999,"inputs":[1],"compute_sec":1}` + "\n"
	if _, err := ReadTrace(bytes.NewBufferString(s)); err == nil {
		t.Fatal("expected out-of-range user error")
	}
}

// Property: generation never emits invalid file references or non-positive
// compute times.
func TestQuickValidity(t *testing.T) {
	f := func(seed uint64, files, jobs uint8) bool {
		spec := baseSpec()
		spec.Files = int(files)%60 + 1
		spec.TotalJobs = int(jobs)%300 + 1
		w, err := Generate(spec, rng.New(seed))
		if err != nil {
			return false
		}
		for _, js := range w.Materialize() {
			for _, j := range js {
				for _, fid := range j.Inputs {
					if int(fid) < 0 || int(fid) >= spec.Files {
						return false
					}
				}
				if j.Compute <= 0 {
					return false
				}
			}
		}
		return w.TotalJobs() == spec.TotalJobs
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestPopularityStrings(t *testing.T) {
	if Geometric.String() != "geometric" || Zipf.String() != "zipf" || Uniform.String() != "uniform" {
		t.Fatal("strings wrong")
	}
}
