package core

import (
	"math"
	"testing"

	"chicsim/internal/queueing"
)

// TestSingleSiteMatchesQueueingTheory checks the whole simulator against
// closed-form queueing results. One site with c CEs serves one user
// whose submissions arrive as a Poisson stream at rate λ; storage is
// unlimited and the pair is JobLocal+DataDoNothing, so every input is a
// master copy at the only site and no job waits for data. The site is
// then an M/G/c FIFO queue whose service times are the jobs' compute
// times, and its mean queue wait (dispatch to start) is predicted from
// λ and the moments of S taken from the run's own workload:
//
//   - c = 1: Pollaczek–Khinchine, λE[S²]/(2(1−ρ)), exact for M/G/1;
//   - c = 2, 4: Allen–Cunneen, the M/M/c (Erlang-C) wait at μ = 1/E[S]
//     scaled by (1 + C²s)/2, an approximation.
//
// Bounds. Each (c, ρ) was calibrated on seeds 5–20, disjoint from the
// four seeds checked here: σ is the standard deviation of one seed's
// relative error W_sim/W_theory − 1 there, and b its mean. The mean of
// four seeds has standard error σ/2. P–K is exact, so its band is
// 0 ± 4·σ/2. Allen–Cunneen's own error does not vanish (it grows with c
// and shrinks as ρ → 1), so its band is centred on the calibrated bias b
// with half-width 4·σ·√(1/4 + 1/16), four standard errors of the
// difference between a four-seed and a sixteen-seed mean. A correct
// simulator leaves a band with probability below 1e-4.
func TestSingleSiteMatchesQueueingTheory(t *testing.T) {
	const meanS = 375 // s: 300 s/GB × the 1.25 GB mean of U[0.5, 2] GB files
	cases := []struct {
		c        int
		rho      float64 // nominal; the realized ρ follows each seed's files
		bias, sd float64 // calibrated on seeds 5–20
	}{
		{1, 0.5, 0, 0.0219},
		{1, 0.7, 0, 0.0311},
		{2, 0.5, 0.0500, 0.0314},
		{2, 0.7, 0.0204, 0.0365},
		{4, 0.5, 0.1150, 0.0508},
		{4, 0.7, 0.0484, 0.0461},
	}
	seeds := []uint64{1, 2, 3, 4}
	for _, tc := range cases {
		var meanErr float64
		for _, seed := range seeds {
			cfg := DefaultConfig()
			cfg.Seed = seed
			cfg.Sites, cfg.RegionFanout = 1, 1
			cfg.Users, cfg.TotalJobs = 1, 40000
			cfg.MinCEs, cfg.MaxCEs = tc.c, tc.c
			cfg.StorageGB = 0
			cfg.ES, cfg.DS = "JobLocal", "DataDoNothing"
			cfg.ArrivalRate = tc.rho * float64(tc.c) / meanS
			sim, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			var n, sum, sum2 float64
			for _, jobs := range sim.Workload().Jobs {
				for _, j := range jobs {
					n++
					sum += j.Compute
					sum2 += j.Compute * j.Compute
				}
			}
			res, err := sim.Run()
			if err != nil {
				t.Fatal(err)
			}
			if res.AvgDataWaitSec != 0 {
				t.Fatalf("c=%d seed %d: AvgDataWaitSec = %v, want 0 with every input local", tc.c, seed, res.AvgDataWaitSec)
			}
			// Every job holds one CE for exactly its compute time, so the
			// busy fraction is the work over the CE-time available.
			busy := sum / (float64(tc.c) * res.Makespan)
			if got := 1 - res.IdleFrac; math.Abs(got-busy) > 1e-9*busy {
				t.Errorf("c=%d seed %d: 1 - IdleFrac = %.15f, want ΣCompute/(CEs × Makespan) = %.15f", tc.c, seed, got, busy)
			}
			lambda, es, es2 := cfg.ArrivalRate, sum/n, sum2/n
			var want float64
			if tc.c == 1 {
				want, err = queueing.MG1AvgWait(lambda, es, es2)
			} else {
				want, err = queueing.MMCAvgWait(lambda, 1/es, tc.c)
				cs2 := es2/(es*es) - 1 // squared coefficient of variation of S
				want *= (1 + cs2) / 2
			}
			if err != nil {
				t.Fatal(err)
			}
			meanErr += (res.AvgQueueWait/want - 1) / float64(len(seeds))
		}
		half := 4 * tc.sd * math.Sqrt(1.0/4+1.0/16)
		if tc.c == 1 {
			half = 4 * tc.sd / 2
		}
		if math.Abs(meanErr-tc.bias) > half {
			t.Errorf("c=%d ρ=%v: mean relative error of the queue wait %+.4f, want %+.4f ± %.4f", tc.c, tc.rho, meanErr, tc.bias, half)
		}
	}
}
