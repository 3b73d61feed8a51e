package main

import (
	"slices"
	"testing"
)

func TestRunSeedsAreDisjointBlocks(t *testing.T) {
	if got := runSeeds(1, 30); got[0] != 1 || got[29] != 30 {
		t.Errorf("seed 1 runs %d..%d, want the paper's 1..30", got[0], got[29])
	}
	seen := map[uint64]uint64{}
	for run := uint64(1); run <= 10; run++ {
		seeds := runSeeds(run, 3)
		if !slices.Equal(seeds, runSeeds(run, 3)) {
			t.Fatalf("run %d: seeds differ between calls", run)
		}
		for _, s := range seeds {
			if prev, ok := seen[s]; ok {
				t.Errorf("seed %d is in runs %d and %d", s, prev, run)
			}
			seen[s] = run
		}
	}
}

func TestCalmWall(t *testing.T) {
	// Three repetitions of four laps; a burst of outside load slows a
	// different lap in each, so every lap has a calm repetition.
	reps := []rep{
		{units: []float64{3, 1, 1, 1}},
		{units: []float64{1, 2, 1, 1}},
		{units: []float64{1, 1, 1, 5}},
	}
	if got := calmWall(reps); got != 4 {
		t.Errorf("calmWall = %v, want 4 (each lap at its fastest)", got)
	}
	if got := calmWall(reps[:1]); got != 6 {
		t.Errorf("one repetition: calmWall = %v, want its own wall time 6", got)
	}
	short := append(reps[:2:2], rep{units: []float64{1, 1}})
	if got := calmWall(short); got != 0 {
		t.Errorf("a repetition that stopped part-way: calmWall = %v, want 0", got)
	}
}
