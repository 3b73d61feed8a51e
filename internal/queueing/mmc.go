// Package queueing provides analytical queueing-theory baselines: M/M/1,
// M/M/c with Erlang-C, and the Pollaczek–Khinchine M/G/1 wait.
//
// Its purpose is validation: core's TestSingleSiteMatchesQueueingTheory
// runs the whole simulator on a one-site grid fed by a Poisson stream,
// which is an M/G/c queue, and checks its mean queue wait against these
// closed forms — a standard credibility step for a from-scratch
// simulator. The formulas are also handy as sanity baselines when
// interpreting grid results (a site with c compute elements fed by
// Poisson-ish arrivals is approximately M/G/c).
package queueing

import (
	"fmt"
	"math"
)

// MM1AvgWait returns the expected time in queue (excluding service) for an
// M/M/1 system with arrival rate lambda and service rate mu. It errors
// when the system is unstable (lambda >= mu) or rates are non-positive.
func MM1AvgWait(lambda, mu float64) (float64, error) {
	if lambda <= 0 || mu <= 0 {
		return 0, fmt.Errorf("queueing: rates must be positive (λ=%v μ=%v)", lambda, mu)
	}
	if lambda >= mu {
		return 0, fmt.Errorf("queueing: unstable system (λ=%v ≥ μ=%v)", lambda, mu)
	}
	return lambda / (mu * (mu - lambda)), nil
}

// MM1AvgInSystem returns the expected number of customers in an M/M/1
// system (queue + service).
func MM1AvgInSystem(lambda, mu float64) (float64, error) {
	if _, err := MM1AvgWait(lambda, mu); err != nil {
		return 0, err
	}
	rho := lambda / mu
	return rho / (1 - rho), nil
}

// ErlangC returns the probability that an arriving customer must queue in
// an M/M/c system with offered load a = lambda/mu and c servers.
func ErlangC(c int, a float64) (float64, error) {
	if c <= 0 {
		return 0, fmt.Errorf("queueing: c = %d servers", c)
	}
	if a <= 0 || a >= float64(c) {
		return 0, fmt.Errorf("queueing: offered load a=%v outside (0, c=%d)", a, c)
	}
	// Iteratively build Σ a^k/k! and a^c/c! to avoid overflow.
	sum := 1.0  // k = 0 term
	term := 1.0 // a^k / k!
	for k := 1; k < c; k++ {
		term *= a / float64(k)
		sum += term
	}
	top := term * a / float64(c) // a^c / c!
	rho := a / float64(c)
	pWait := top / (1 - rho) / (sum + top/(1-rho))
	return pWait, nil
}

// MMCAvgWait returns the expected queueing delay (excluding service) for
// an M/M/c system.
func MMCAvgWait(lambda, mu float64, c int) (float64, error) {
	if lambda <= 0 || mu <= 0 {
		return 0, fmt.Errorf("queueing: rates must be positive (λ=%v μ=%v)", lambda, mu)
	}
	a := lambda / mu
	pWait, err := ErlangC(c, a)
	if err != nil {
		return 0, err
	}
	return pWait / (float64(c)*mu - lambda), nil
}

// MG1AvgWait returns the Pollaczek–Khinchine expected queueing delay
// (excluding service) of an M/G/1 system with arrival rate lambda and
// service-time moments es = E[S] and es2 = E[S²]: λE[S²]/(2(1−ρ)) with
// ρ = λE[S]. It errors when the system is unstable or an input is not
// positive.
func MG1AvgWait(lambda, es, es2 float64) (float64, error) {
	if lambda <= 0 || es <= 0 || es2 <= 0 {
		return 0, fmt.Errorf("queueing: λ=%v E[S]=%v E[S²]=%v must be positive", lambda, es, es2)
	}
	rho := lambda * es
	if rho >= 1 {
		return 0, fmt.Errorf("queueing: unstable system (ρ=%v ≥ 1)", rho)
	}
	return lambda * es2 / (2 * (1 - rho)), nil
}

// MMCUtilization returns per-server utilization ρ = λ/(cμ).
func MMCUtilization(lambda, mu float64, c int) float64 {
	if c <= 0 || mu <= 0 {
		return math.NaN()
	}
	return lambda / (float64(c) * mu)
}
