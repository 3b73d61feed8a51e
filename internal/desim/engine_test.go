package desim

import (
	"math/rand"
	"sort"
	"strings"
	"testing"
	"testing/quick"
)

func TestZeroValueUsable(t *testing.T) {
	var e Engine
	ran := false
	e.Schedule(1, func() { ran = true })
	e.Run()
	if !ran {
		t.Fatal("event did not run")
	}
	if e.Now() != 1 {
		t.Fatalf("clock = %v, want 1", e.Now())
	}
}

// TestResetDropsPendingEvents checks that Reset returns the engine to
// its zero state with events still pending, and that a handle to one of
// them cancels nothing afterwards.
func TestResetDropsPendingEvents(t *testing.T) {
	e := New()
	stale := e.Schedule(5, func() { t.Fatal("a dropped event fired") })
	e.Schedule(1, func() {})
	e.Step()
	e.Reset()
	if e.Now() != 0 || e.Pending() != 0 || e.Fired() != 0 {
		t.Fatalf("after Reset: now %v, pending %d, fired %d; want all zero", e.Now(), e.Pending(), e.Fired())
	}
	e.Cancel(stale)
	if e.Pending() != 0 {
		t.Fatalf("cancelling a dropped event left %d pending", e.Pending())
	}
	var order []int
	e.Schedule(2, func() { order = append(order, 2) })
	e.Schedule(1, func() { order = append(order, 1) })
	e.Cancel(stale)
	e.Run()
	if len(order) != 2 || order[0] != 1 || order[1] != 2 || e.Now() != 2 {
		t.Fatalf("after Reset: fired %v by t=%v, want [1 2] by t=2", order, e.Now())
	}
}

func TestEventsFireInTimeOrder(t *testing.T) {
	e := New()
	var got []Time
	for _, d := range []Time{5, 1, 3, 2, 4} {
		d := d
		e.Schedule(d, func() { got = append(got, d) })
	}
	e.Run()
	if !sort.Float64sAreSorted(got) {
		t.Fatalf("events out of order: %v", got)
	}
	if len(got) != 5 {
		t.Fatalf("fired %d events, want 5", len(got))
	}
}

func TestTieBreakBySchedulingOrder(t *testing.T) {
	e := New()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(7, func() { got = append(got, i) })
	}
	e.Run()
	for i, v := range got {
		if v != i {
			t.Fatalf("tie-break violated at %d: %v", i, got)
		}
	}
}

func TestScheduleFromWithinEvent(t *testing.T) {
	e := New()
	var order []string
	e.Schedule(1, func() {
		order = append(order, "a")
		e.Schedule(1, func() { order = append(order, "c") })
		e.Schedule(0, func() { order = append(order, "b") })
	})
	e.Run()
	want := []string{"a", "b", "c"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
	if e.Now() != 2 {
		t.Fatalf("clock = %v, want 2", e.Now())
	}
}

func TestCancel(t *testing.T) {
	e := New()
	fired := false
	ev := e.Schedule(1, func() { fired = true })
	e.Cancel(ev)
	e.Run()
	if fired {
		t.Fatal("cancelled event fired")
	}
	if !ev.Canceled() {
		t.Fatal("event not marked cancelled")
	}
	// Double cancel and cancel of the zero handle are no-ops.
	e.Cancel(ev)
	e.Cancel(Event{})
}

func TestCancelOneOfMany(t *testing.T) {
	e := New()
	var got []int
	var evs []Event
	for i := 0; i < 100; i++ {
		i := i
		evs = append(evs, e.Schedule(Time(i%13), func() { got = append(got, i) }))
	}
	for i := 0; i < 100; i += 3 {
		e.Cancel(evs[i])
	}
	e.Run()
	for _, v := range got {
		if v%3 == 0 {
			t.Fatalf("cancelled event %d fired", v)
		}
	}
	if len(got) != 66 {
		t.Fatalf("fired %d, want 66", len(got))
	}
}

func TestRunUntil(t *testing.T) {
	e := New()
	var fired []Time
	for _, d := range []Time{1, 2, 3, 10} {
		d := d
		e.Schedule(d, func() { fired = append(fired, d) })
	}
	e.RunUntil(5)
	if len(fired) != 3 {
		t.Fatalf("fired %d events before horizon, want 3", len(fired))
	}
	if e.Now() != 5 {
		t.Fatalf("clock = %v, want horizon 5", e.Now())
	}
	e.Run()
	if len(fired) != 4 {
		t.Fatalf("fired %d total, want 4", len(fired))
	}
}

func TestStop(t *testing.T) {
	e := New()
	count := 0
	for i := 0; i < 10; i++ {
		e.Schedule(Time(i), func() {
			count++
			if count == 4 {
				e.Stop()
			}
		})
	}
	e.Run()
	if count != 4 {
		t.Fatalf("count = %d, want 4", count)
	}
	e.Run() // resumes
	if count != 10 {
		t.Fatalf("count after resume = %d, want 10", count)
	}
}

func TestPanicsOnInvalidSchedule(t *testing.T) {
	e := New()
	for name, fn := range map[string]func(){
		"negative delay": func() { e.Schedule(-1, func() {}) },
		"nil callback":   func() { e.Schedule(1, nil) },
		"past time":      func() { e.Schedule(5, func() {}); e.Run(); e.At(1, func() {}) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: for any set of delays, execution order is sorted by time with
// ties in submission order.
func TestQuickOrdering(t *testing.T) {
	f := func(delays []uint16) bool {
		e := New()
		type rec struct {
			t   Time
			seq int
		}
		var got []rec
		for i, d := range delays {
			i, d := i, d
			e.Schedule(Time(d), func() { got = append(got, rec{Time(d), i}) })
		}
		e.Run()
		if len(got) != len(delays) {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].t < got[i-1].t {
				return false
			}
			if got[i].t == got[i-1].t && got[i].seq < got[i-1].seq {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: cancelling an arbitrary subset fires exactly the complement.
func TestQuickCancelSubset(t *testing.T) {
	f := func(delays []uint8, mask []bool) bool {
		e := New()
		fired := make(map[int]bool)
		var evs []Event
		for i, d := range delays {
			i := i
			evs = append(evs, e.Schedule(Time(d), func() { fired[i] = true }))
		}
		cancelled := make(map[int]bool)
		for i := range evs {
			if i < len(mask) && mask[i] {
				e.Cancel(evs[i])
				cancelled[i] = true
			}
		}
		e.Run()
		for i := range delays {
			if fired[i] == cancelled[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: interleaving random schedule/cancel/step operations never
// violates the clock monotonicity invariant.
func TestQuickClockMonotonic(t *testing.T) {
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		e := New()
		last := Time(0)
		ok := true
		var live []Event
		for i := 0; i < 300; i++ {
			switch r.Intn(3) {
			case 0:
				live = append(live, e.Schedule(Time(r.Intn(50)), func() {
					if e.Now() < last {
						ok = false
					}
					last = e.Now()
				}))
			case 1:
				if len(live) > 0 {
					e.Cancel(live[r.Intn(len(live))])
				}
			case 2:
				e.Step()
			}
		}
		e.Run()
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkScheduleRun(b *testing.B) {
	for i := 0; i < b.N; i++ {
		e := New()
		for j := 0; j < 1000; j++ {
			e.Schedule(Time(j%97), func() {})
		}
		e.Run()
	}
}

// AtAsOf places an event among same-time events by the time it counts as
// booked at: after those booked at or before it, before those booked
// later, and after the event now executing unless that one was booked
// later, in which case it reports false.
func TestAtAsOfOrdersByBookingTime(t *testing.T) {
	e := New()
	var got []string
	mark := func(s string) func() { return func() { got = append(got, s) } }
	e.At(10, mark("A")) // booked at 0
	e.At(5, func() { e.At(10, mark("B")) })
	e.At(7, func() {
		e.At(10, mark("E"))
		if _, ok := e.AtAsOf(10, 5, mark("C")); !ok {
			t.Error("AtAsOf in the future refused")
		}
		if _, ok := e.AtAsOf(10, 3, mark("D")); !ok {
			t.Error("AtAsOf in the future refused")
		}
	})
	e.Run()
	if want := "A D B C E"; strings.Join(got, " ") != want {
		t.Fatalf("order %q, want %q", strings.Join(got, " "), want)
	}

	e = New()
	e.At(4, func() {})
	e.At(6, func() {
		e.At(10, func() {
			if _, ok := e.AtAsOf(10, 5, func() {}); ok {
				t.Error("AtAsOf booked before the running event was accepted at its instant")
			}
			if _, ok := e.AtAsOf(10, 6, func() {}); !ok {
				t.Error("AtAsOf booked with the running event was refused")
			}
		})
	})
	e.Run()
	if e.Fired() != 4 {
		t.Fatalf("fired %d events, want 4", e.Fired())
	}
	defer func() {
		if recover() == nil {
			t.Fatal("AtAsOf booked after now did not panic")
		}
	}()
	e.AtAsOf(20, e.Now()+1, func() {})
}
