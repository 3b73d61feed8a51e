package obs_test

import (
	"fmt"

	"chicsim/internal/obs"
)

// A sink hears the probe columns once and then one row whenever its host
// reads the probes; in the simulator that is core's observation tick on
// the virtual clock, which reuses one row for every tick. Here a
// queue-depth gauge and a completed-jobs counter go to an in-memory
// Series at three ticks 10 virtual seconds apart while a tiny "workload"
// (two state-changing events, at t=5 and t=25) plays out.
func Example() {
	queue, done := 4, 0
	series := new(obs.Series)
	series.Begin([]string{"queue_len", "jobs_done"}, []obs.Kind{obs.GaugeKind, obs.CounterKind})
	row := make([]float64, 2)
	sample := func(t float64) {
		row[0], row[1] = float64(queue), float64(done)
		series.Point(obs.Point{T: t, Values: row})
	}

	queue, done = 2, 2 // t=5
	sample(10)
	sample(20)
	queue, done = 0, 4 // t=25
	sample(30)

	fmt.Println("probes:", series.Names)
	for _, p := range series.Points {
		fmt.Printf("t=%g queue_len=%g jobs_done=%g\n", p.T, p.Values[0], p.Values[1])
	}
	// Output:
	// probes: [queue_len jobs_done]
	// t=10 queue_len=2 jobs_done=2
	// t=20 queue_len=2 jobs_done=2
	// t=30 queue_len=0 jobs_done=4
}
