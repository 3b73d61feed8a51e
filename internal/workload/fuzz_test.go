package workload

import (
	"bytes"
	"strings"
	"testing"

	"chicsim/internal/rng"
)

// FuzzReadTrace ensures the workload trace parser never panics and accepts
// its own output.
func FuzzReadTrace(f *testing.F) {
	w, err := Generate(Spec{
		Users: 2, Sites: 2, Files: 4, TotalJobs: 6,
		MinFileBytes: 1e6, MaxFileBytes: 2e6, ComputePerGB: 300,
		Popularity: Geometric, GeomP: 0.2, InputsPerJob: 1,
	}, rng.New(1))
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if err := w.WriteTrace(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.String())
	f.Add(`{"spec":{}}`)
	f.Add(`not json at all`)
	f.Add(`{"spec":{"users":1},"file_sizes":[1]}` + "\n" + `{"id":0,"user":5,"inputs":[0],"compute_sec":1}`)
	// Headers the simulation cannot be built from, rejected before
	// anything is allocated for the users they claim.
	f.Add(`{"spec":{"users":-1}}`)
	f.Add(`{"spec":{"users":1,"sites":2},"user_home":[0],"file_sizes":[1e6],"master_site":[7]}`)
	f.Add(`{"spec":{"users":3,"sites":2},"user_home":[0,1]}`)
	f.Add(`{"spec":{"users":202000000,"sites":2},"user_home":[0,1]}`)
	// An input id past storage.FileID's int32 range: wrapped, it would
	// name file 0.
	wide := `{"spec":{"users":1,"sites":1},"user_home":[0],"file_sizes":[1e6],"master_site":[0]}` + "\n" +
		`{"id":0,"user":0,"inputs":[4294967296],"compute_sec":1}`
	f.Add(wide)
	f.Fuzz(func(t *testing.T, input string) {
		w, err := ReadTrace(strings.NewReader(input))
		if input == wide && err == nil {
			t.Fatalf("input id 4294967296 accepted as file %d", w.Jobs[0][0].Inputs[0])
		}
		if err != nil {
			return
		}
		// Anything accepted must re-serialize without panicking.
		var out bytes.Buffer
		_ = w.WriteTrace(&out)
		_ = w.TotalJobs()
		_ = w.PopularityHistogram()
	})
}
