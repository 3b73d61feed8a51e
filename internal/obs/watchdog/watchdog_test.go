package watchdog

import (
	"strings"
	"testing"
)

func TestParseMode(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want Mode
		ok   bool
	}{
		{"off", Off, true},
		{"", Off, true},
		{"warn", Warn, true},
		{"fail", Fail, true},
		{"panic", Off, false},
	} {
		got, err := ParseMode(tc.in)
		if (err == nil) != tc.ok || got != tc.want {
			t.Errorf("ParseMode(%q) = %v, %v; want %v, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
	if Warn.String() != "warn" || Fail.String() != "fail" || Off.String() != "off" {
		t.Error("Mode.String mismatch")
	}
}

func TestOffModeIsNoOp(t *testing.T) {
	w := New(Config{Mode: Off})
	w.Register("always_bad", func() string { return "broken" })
	if err := w.Tick(1); err != nil {
		t.Fatalf("Off mode Tick returned %v", err)
	}
	if w.Count() != 0 {
		t.Fatalf("Off mode recorded %d violations", w.Count())
	}
}

func TestWarnModeLogsAndContinues(t *testing.T) {
	var seen []Violation
	w := New(Config{Mode: Warn, OnViolation: func(v Violation) { seen = append(seen, v) }})
	calls := 0
	w.Register("flaky", func() string {
		calls++
		if calls == 2 {
			return "call 2 broke"
		}
		return ""
	})
	for i := 1; i <= 3; i++ {
		if err := w.Tick(float64(i)); err != nil {
			t.Fatalf("Warn mode Tick returned %v", err)
		}
	}
	if w.Count() != 1 || len(seen) != 1 {
		t.Fatalf("count = %d, observed = %d; want 1, 1", w.Count(), len(seen))
	}
	v := seen[0]
	if v.T != 2 || v.Check != "flaky" || v.Detail != "call 2 broke" {
		t.Fatalf("violation = %+v", v)
	}
}

func TestFailModeStopsAtFirstViolation(t *testing.T) {
	w := New(Config{Mode: Fail})
	w.Register("conservation", func() string { return "submitted 10 != accounted 9" })
	err := w.Tick(5)
	if err == nil {
		t.Fatal("Fail mode should return an error")
	}
	if !strings.Contains(err.Error(), "conservation") || !strings.Contains(err.Error(), "submitted 10 != accounted 9") {
		t.Fatalf("error lacks detail: %v", err)
	}
}

func TestTimeMonotonicity(t *testing.T) {
	w := New(Config{Mode: Fail})
	if err := w.Tick(10); err != nil {
		t.Fatal(err)
	}
	if err := w.Tick(10); err != nil {
		t.Fatalf("equal timestamps are fine: %v", err)
	}
	err := w.Tick(9)
	if err == nil || !strings.Contains(err.Error(), "time_monotonic") {
		t.Fatalf("backwards tick should trip monotonicity: %v", err)
	}
}

func TestRegisterNilPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("nil check fn should panic")
		}
	}()
	New(Config{Mode: Warn}).Register("nil", nil)
}
