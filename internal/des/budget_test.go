package des

import (
	"errors"
	"strings"
	"testing"
)

// TestBudgetMaxEventsTerminatesLivelock: a Proc that reschedules itself
// forever is terminated by the event budget with a structured diagnosis,
// and its goroutine is unwound.
func TestBudgetMaxEventsTerminatesLivelock(t *testing.T) {
	s := NewScheduler(1, WithBudget(Budget{MaxEvents: 1000}))
	looper := s.Spawn("looper", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	err := s.Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run = %v, want *LivelockError", err)
	}
	if ll.Events != 1000 {
		t.Errorf("Events = %d, want 1000", ll.Events)
	}
	if ll.Virtual <= 0 {
		t.Errorf("Virtual = %v, want > 0", ll.Virtual)
	}
	if len(ll.Hot) == 0 || ll.Hot[0].Proc != "looper" || ll.Hot[0].Steps == 0 {
		t.Errorf("Hot = %+v, want looper ranked hottest with steps > 0", ll.Hot)
	}
	if !strings.Contains(ll.Error(), "looper") {
		t.Errorf("error %q does not name the hot proc", ll.Error())
	}
	if !looper.done {
		t.Error("livelocked proc goroutine not unwound after budget trip")
	}
}

// TestBudgetMaxVirtualTerminates: the virtual-time bound stops a run
// before it executes any event past the horizon.
func TestBudgetMaxVirtualTerminates(t *testing.T) {
	s := NewScheduler(1, WithBudget(Budget{MaxVirtual: 50 * Microsecond}))
	s.Spawn("looper", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	err := s.Run()
	var ll *LivelockError
	if !errors.As(err, &ll) {
		t.Fatalf("Run = %v, want *LivelockError", err)
	}
	if ll.Virtual > 50*Microsecond {
		t.Errorf("run reached %v, past the %v budget", ll.Virtual, 50*Microsecond)
	}
}

// TestBudgetZeroIsUnlimited: the zero Budget changes nothing about a
// finite run, and a finite run under a generous budget completes normally.
func TestBudgetZeroIsUnlimited(t *testing.T) {
	for _, opts := range [][]Option{nil, {WithBudget(Budget{})}, {WithBudget(Budget{MaxEvents: 1 << 40, MaxVirtual: Second})}} {
		s := NewScheduler(1, opts...)
		ran := 0
		s.Spawn("worker", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Advance(Microsecond)
				ran++
			}
		})
		if err := s.Run(); err != nil {
			t.Fatalf("finite run failed: %v", err)
		}
		if ran != 100 {
			t.Fatalf("ran %d iterations, want 100", ran)
		}
	}
	if !(Budget{}).IsZero() || (Budget{MaxEvents: 1}).IsZero() {
		t.Error("Budget.IsZero misclassifies")
	}
}

// TestProcPanicErrorTyped: a Proc panic reaches the Run caller as a
// returned *ProcPanicError carrying the original value and a stack that names the
// panic site, not a flattened string.
func TestProcPanicErrorTyped(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("bad", func(p *Proc) {
		p.Advance(Microsecond)
		panicInHelper()
	})
	err := s.Run()
	var pp *ProcPanicError
	if !errors.As(err, &pp) {
		t.Fatalf("Run returned %T (%v), want *ProcPanicError", err, err)
	}
	if pp.Proc != "bad" {
		t.Errorf("Proc = %q, want \"bad\"", pp.Proc)
	}
	if pp.Value != "boom" {
		t.Errorf("Value = %v, want the original panic value \"boom\"", pp.Value)
	}
	if !strings.Contains(string(pp.Stack), "panicInHelper") {
		t.Errorf("Stack does not name the panic site:\n%s", pp.Stack)
	}
	if !strings.Contains(pp.Error(), `proc "bad"`) || strings.Contains(pp.Error(), "panicInHelper") {
		t.Errorf("Error() = %q: want proc name, no stack", pp.Error())
	}
}

// panicInHelper gives the captured stack a recognisable frame.
func panicInHelper() { panic("boom") }
