package netsim

import (
	"cmp"
	"math"
	"slices"
	"testing"

	"chicsim/internal/desim"
	"chicsim/internal/rng"
)

// psFlow is one measured flow of a processor-sharing run: its size in
// bytes and its sojourn, start to delivery, in seconds.
type psFlow struct{ size, sojourn float64 }

// The processor-sharing runs' bottleneck, 100 MB/s, and mean flow size,
// the mean of U[500 MB, 2 GB].
const (
	psCapacity = 100e6
	psMeanSize = 1.25e9
)

// runPS sends flows of U[500 MB, 2 GB] bytes, the paper's file sizes,
// from site 0 to site 1 of a 3-site star whose links all carry
// psCapacity. Arrivals are Poisson at the rate that offers load rho. Every
// flow crosses the same two links, so under equal share the network is an
// M/G/1 egalitarian processor-sharing queue. The first tenth of the flows
// is dropped as warm-up.
func runPS(t *testing.T, seed uint64, rho float64, policy SharingPolicy, latency float64) []psFlow {
	t.Helper()
	const flows = 40000
	eng := desim.New()
	n := New(eng, star(t, 3, psCapacity), policy)
	if latency > 0 {
		n.SetLatencyPerHop(latency)
	}
	src := rng.New(seed)
	meanGap := psMeanSize / psCapacity / rho
	out := make([]psFlow, flows)
	i := 0
	var arrive func()
	arrive = func() {
		k := i
		i++
		out[k].size = src.Range(500e6, 2e9)
		start := eng.Now()
		n.Transfer(0, 1, out[k].size, func(*Flow) { out[k].sojourn = eng.Now() - start })
		if i < flows {
			eng.Schedule(src.Exp(meanGap), arrive)
		}
	}
	eng.Schedule(src.Exp(meanGap), arrive)
	eng.Run()
	return out[flows/10:]
}

// psRatios returns the mean sojourn over the mean service time x/C, as a
// multiple of the processor-sharing mean 1/(1−ρ), for all flows and for
// each third of them by size; ρ is the realized load, the arrival rate
// times the flows' own mean service time. lag is subtracted from every
// sojourn first.
func psRatios(flows []psFlow, rho, lag float64) (all float64, thirds [3]float64) {
	flows = slices.Clone(flows)
	slices.SortFunc(flows, func(a, b psFlow) int { return cmp.Compare(a.size, b.size) })
	ratio := func(fs []psFlow) float64 {
		var t, x float64
		for _, f := range fs {
			t += f.sojourn - lag
			x += f.size / psCapacity
		}
		return t / x
	}
	var x float64
	for _, f := range flows {
		x += f.size / psCapacity
	}
	realized := rho * x / float64(len(flows)) / (psMeanSize / psCapacity)
	norm := 1 - realized
	all = ratio(flows) * norm
	for k := range thirds {
		lo, hi := k*len(flows)/3, (k+1)*len(flows)/3
		thirds[k] = ratio(flows[lo:hi]) * norm
	}
	return all, thirds
}

// meanSojourn returns the flows' mean sojourn.
func meanSojourn(flows []psFlow) float64 {
	var sum float64
	for _, f := range flows {
		sum += f.sojourn
	}
	return sum / float64(len(flows))
}

// TestNetworkIsProcessorSharing checks netsim against the M/G/1
// egalitarian processor-sharing queue (Kleinrock 1967): a flow of size x
// on a bottleneck of capacity C under load ρ has mean sojourn
// E[T | x] = (x/C)/(1−ρ) whatever the size distribution. So the ratio of
// mean sojourn to mean service time times (1−ρ) is 1, overall and within
// each third of the flows by size; a FIFO link would make the small
// flows' ratio far exceed the large ones'. MaxMinFair equals equal share
// on one bottleneck. A startup latency per hop delays each flow's
// admission by the same constant, which shifts the arrival process and
// leaves the queue as it was: every seed's mean sojourn rises by exactly
// the latency of the two hops.
//
// Bounds. Each ρ was calibrated under EqualShare on seeds 5–20, disjoint
// from the four seeds checked here: sd is the standard deviation of one
// seed's relative error of the overall ratio, and sdThird the largest
// over the thirds. The theory is exact, so a four-seed mean must lie
// within 4·sd/2 of 1, and each third within 4·sdThird/2.
func TestNetworkIsProcessorSharing(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	const latency = 0.05 // s per hop; every flow crosses two
	cases := []struct {
		rho, sd, sdThird float64 // calibrated on seeds 5–20
	}{
		{0.5, 0.0069, 0.0106},
		{0.7, 0.0176, 0.0210},
		{0.9, 0.0591, 0.0598},
	}
	seeds := []uint64{1, 2, 3, 4}
	for _, tc := range cases {
		for _, arm := range []struct {
			name   string
			policy SharingPolicy
			lag    float64
		}{
			{"EqualShare", EqualShare, 0},
			{"MaxMinFair", MaxMinFair, 0},
			{"EqualShare+latency", EqualShare, latency},
		} {
			var all float64
			var thirds [3]float64
			for _, seed := range seeds {
				flows := runPS(t, seed, tc.rho, arm.policy, arm.lag)
				if arm.lag > 0 {
					got := meanSojourn(flows) - meanSojourn(runPS(t, seed, tc.rho, arm.policy, 0))
					if math.Abs(got-2*arm.lag) > 1e-6 {
						t.Errorf("ρ=%v seed %d: latency adds %.9f s to the mean sojourn, want %v", tc.rho, seed, got, 2*arm.lag)
					}
				}
				a, th := psRatios(flows, tc.rho, 2*arm.lag)
				all += a / float64(len(seeds))
				for k := range thirds {
					thirds[k] += th[k] / float64(len(seeds))
				}
			}
			if half := 4 * tc.sd / 2; math.Abs(all-1) > half {
				t.Errorf("ρ=%v %s: mean sojourn %.4f × the processor-sharing mean, want 1 ± %.4f", tc.rho, arm.name, all, half)
			}
			for k, r := range thirds {
				if half := 4 * tc.sdThird / 2; math.Abs(r-1) > half {
					t.Errorf("ρ=%v %s: size third %d's mean sojourn %.4f × the processor-sharing mean, want 1 ± %.4f",
						tc.rho, arm.name, k+1, r, half)
				}
			}
		}
	}
}
