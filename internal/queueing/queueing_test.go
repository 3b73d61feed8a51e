package queueing

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMM1Formulas(t *testing.T) {
	// Textbook case: λ=0.5, μ=1 → Wq = 0.5/(1·0.5) = 1, L = 1.
	w, err := MM1AvgWait(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w-1) > 1e-12 {
		t.Fatalf("Wq = %v, want 1", w)
	}
	l, err := MM1AvgInSystem(0.5, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(l-1) > 1e-12 {
		t.Fatalf("L = %v, want 1", l)
	}
}

func TestMM1Errors(t *testing.T) {
	if _, err := MM1AvgWait(1, 1); err == nil {
		t.Fatal("unstable system accepted")
	}
	if _, err := MM1AvgWait(-1, 1); err == nil {
		t.Fatal("negative rate accepted")
	}
	if _, err := MM1AvgInSystem(2, 1); err == nil {
		t.Fatal("unstable L accepted")
	}
}

func TestErlangC(t *testing.T) {
	// Known value: c=2, a=1 → C(2,1) = 1/3.
	p, err := ErlangC(2, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-1.0/3) > 1e-12 {
		t.Fatalf("ErlangC(2,1) = %v, want 1/3", p)
	}
	// c=1 reduces to ρ.
	p, err = ErlangC(1, 0.7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(p-0.7) > 1e-12 {
		t.Fatalf("ErlangC(1,0.7) = %v, want 0.7", p)
	}
	if _, err := ErlangC(0, 0.5); err == nil {
		t.Fatal("c=0 accepted")
	}
	if _, err := ErlangC(2, 2.5); err == nil {
		t.Fatal("overload accepted")
	}
}

func TestMMCReducesToMM1(t *testing.T) {
	w1, err := MM1AvgWait(0.6, 1)
	if err != nil {
		t.Fatal(err)
	}
	wc, err := MMCAvgWait(0.6, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(w1-wc) > 1e-12 {
		t.Fatalf("MMC(c=1) %v != MM1 %v", wc, w1)
	}
}

func TestUtilization(t *testing.T) {
	if u := MMCUtilization(3, 1, 4); math.Abs(u-0.75) > 1e-12 {
		t.Fatalf("rho = %v", u)
	}
	if !math.IsNaN(MMCUtilization(1, 1, 0)) {
		t.Fatal("c=0 should be NaN")
	}
}

// TestMG1ReducesToMM1: with exponential service, E[S²] = 2/μ², P–K is
// the M/M/1 wait; deterministic service (E[S²] = 1/μ²) halves it.
func TestMG1ReducesToMM1(t *testing.T) {
	const lambda, mu = 0.6, 1.0
	mm1, _ := MM1AvgWait(lambda, mu)
	if w, err := MG1AvgWait(lambda, 1/mu, 2/(mu*mu)); err != nil || math.Abs(w-mm1) > 1e-12 {
		t.Fatalf("M/G/1 with exponential service = %v, %v; want M/M/1 %v", w, err, mm1)
	}
	if w, _ := MG1AvgWait(lambda, 1/mu, 1/(mu*mu)); math.Abs(w-mm1/2) > 1e-12 {
		t.Fatalf("M/D/1 = %v, want %v", w, mm1/2)
	}
	for _, c := range [][3]float64{{0, 1, 1}, {1, 0, 1}, {1, 1, 0}, {1, 1, 2}} {
		if _, err := MG1AvgWait(c[0], c[1], c[2]); err == nil {
			t.Errorf("MG1AvgWait(%v) accepted", c)
		}
	}
}

// Property: adding servers never increases the analytical wait.
func TestQuickMoreServersNeverWorse(t *testing.T) {
	f := func(seedLambda, seedMu uint16) bool {
		lambda := 0.1 + float64(seedLambda%80)/100 // 0.1..0.89
		mu := 1.0 + float64(seedMu%100)/100        // 1.0..1.99
		prev := math.Inf(1)
		for c := 1; c <= 4; c++ {
			w, err := MMCAvgWait(lambda, mu, c)
			if err != nil {
				return false
			}
			if w > prev+1e-12 {
				return false
			}
			prev = w
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
