package obs_test

import (
	"fmt"

	"chicsim/internal/obs"
)

// A registry records one row of probe values whenever its host reads the
// probes and calls Sample; in the simulator that is core's observation
// tick on the virtual clock. Here a queue-depth gauge and a
// completed-jobs counter are sampled at three ticks 10 virtual seconds
// apart while a tiny "workload" (two state-changing events, at t=5 and
// t=25) plays out.
func Example() {
	queue, done := 4, 0
	reg := obs.NewRegistry([]string{"queue_len", "jobs_done"},
		[]obs.Kind{obs.GaugeKind, obs.CounterKind})
	sample := func(t float64) { reg.Sample(t, []float64{float64(queue), float64(done)}) }

	queue, done = 2, 2 // t=5
	sample(10)
	sample(20)
	queue, done = 0, 4 // t=25
	sample(30)

	s := reg.Series()
	fmt.Println("probes:", s.Names)
	for _, p := range s.Points {
		fmt.Printf("t=%g queue_len=%g jobs_done=%g\n", p.T, p.Values[0], p.Values[1])
	}
	// Output:
	// probes: [queue_len jobs_done]
	// t=10 queue_len=2 jobs_done=2
	// t=20 queue_len=2 jobs_done=2
	// t=30 queue_len=0 jobs_done=4
}
