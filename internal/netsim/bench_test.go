package netsim_test

import (
	"fmt"
	"testing"

	"chicsim/internal/kernelbench"
	"chicsim/internal/netsim"
)

// Reflow cost per flow admission+cancellation at increasing levels of
// concurrency (bodies shared with cmd/kernelbench). The flow counts
// bracket the default scenario (tens of concurrent flows) and the
// congested 100k+ events/s campaigns ROADMAP targets.
func benchReflow(b *testing.B, policy netsim.SharingPolicy) {
	for _, flows := range []int{10, 100, 1000} {
		b.Run(fmt.Sprintf("flows=%d", flows), kernelbench.Reflow(policy, flows))
	}
}

func BenchmarkReflowEqualShare(b *testing.B) { benchReflow(b, netsim.EqualShare) }

func BenchmarkReflowMaxMin(b *testing.B) { benchReflow(b, netsim.MaxMinFair) }

// BenchmarkReflowChurn cancels pseudo-random flows from the middle of a
// scale-sized population and admits replacements (body shared with
// cmd/kernelbench).
func BenchmarkReflowChurn(b *testing.B) { b.Run("flows=1600", kernelbench.ReflowChurn(1600)) }
