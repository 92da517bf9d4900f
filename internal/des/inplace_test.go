package des

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"
)

// The tests in this file pin the in-place Advance path (runsNext) to the
// result parking would give. A loop with a DrainUntil predicate never runs
// an Advance in place, so draining under a predicate that never fires is
// the parking reference; the expected figures below are also what the
// scheduler produced before the in-place path existed.

// heapUsed reports whether any event ever went through s's heap. A Proc
// whose every positive Advance ran in place leaves it unallocated.
func heapUsed(s *Scheduler) bool { return cap(s.heap.a) > 0 }

// parked runs s to completion like Run, but through a DrainUntil
// predicate that never fires, so every Advance parks.
func parked(s *Scheduler) error {
	if err := s.DrainUntil(func() bool { return false }); err != nil {
		return err
	}
	return s.Finish()
}

// TestAdvanceRunsInPlace: a lone Proc's Advance chain never parks, yet
// the clock, the event count and the Proc's step count read exactly as
// if every wake-up had gone through the queue.
func TestAdvanceRunsInPlace(t *testing.T) {
	for _, run := range []struct {
		name    string
		drive   func(*Scheduler) error
		inPlace bool
	}{{"run", (*Scheduler).Run, true}, {"parked", parked, false}} {
		s := NewScheduler(1)
		var seen []Time
		p := s.Spawn("chain", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(Time(i) * Microsecond)
				seen = append(seen, p.Now())
			}
		})
		if err := run.drive(s); err != nil {
			t.Fatalf("%s: %v", run.name, err)
		}
		want := []Time{0, Microsecond, 3 * Microsecond, 6 * Microsecond, 10 * Microsecond}
		if !reflect.DeepEqual(seen, want) {
			t.Errorf("%s: wake times %v, want %v", run.name, seen, want)
		}
		if s.Executed() != 6 || p.steps != 6 || s.Now() != 10*Microsecond || s.seq != 6 {
			t.Errorf("%s: executed %d, steps %d, now %v, seq %d; want 6, 6, 10µs, 6",
				run.name, s.Executed(), p.steps, s.Now(), s.seq)
		}
		if heapUsed(s) == run.inPlace {
			t.Errorf("%s: heap used = %v, want %v", run.name, heapUsed(s), !run.inPlace)
		}
	}
}

// TestInPlaceMaxEventsMidChain: the event budget runs out in the middle of
// a chain of in-place Advances. The run stops at the same event, clock and
// per-Proc step counts as when every Advance parks.
func TestInPlaceMaxEventsMidChain(t *testing.T) {
	for _, drive := range []func(*Scheduler) error{(*Scheduler).Run, parked} {
		s := NewScheduler(1, WithBudget(Budget{MaxEvents: 10}))
		chain := s.Spawn("chain", func(p *Proc) {
			for i := 0; i < 100; i++ {
				p.Advance(Microsecond)
			}
		})
		other := s.Spawn("other", func(p *Proc) { p.Advance(100 * Microsecond) })
		var ll *LivelockError
		if err := drive(s); !errors.As(err, &ll) {
			t.Fatalf("run = %v, want *LivelockError", err)
		}
		want := &LivelockError{Events: 10, Virtual: 8 * Microsecond,
			Hot: []ProcLoad{{"chain", 9}, {"other", 1}}}
		if !reflect.DeepEqual(ll, want) {
			t.Errorf("livelock %+v, want %+v", ll, want)
		}
		if !chain.done || !other.done {
			t.Error("Procs not unwound after the budget tripped")
		}
	}
}

// TestInPlaceMaxVirtualAtWake: a wake-up exactly at MaxVirtual still runs,
// in place, and the next one, past it, ends the run — on a Scheduler and
// on a one-shard Cluster, whose window horizon is capped the same way.
func TestInPlaceMaxVirtualAtWake(t *testing.T) {
	const max = 5 * Microsecond
	chain := func(s *Scheduler, seen *[]Time) {
		s.Spawn("chain", func(p *Proc) {
			for i := 0; i < 100; i++ {
				*seen = append(*seen, p.Now())
				p.Advance(Microsecond)
			}
		})
	}
	want := []Time{0, Microsecond, 2 * Microsecond, 3 * Microsecond, 4 * Microsecond, max}
	wantErr := &LivelockError{Events: 6, Virtual: max, Hot: []ProcLoad{{"chain", 6}}}
	check := func(name string, err error, seen []Time) {
		t.Helper()
		var ll *LivelockError
		if !errors.As(err, &ll) {
			t.Fatalf("%s: run = %v, want *LivelockError", name, err)
		}
		if !reflect.DeepEqual(ll, wantErr) || !reflect.DeepEqual(seen, want) {
			t.Errorf("%s: livelock %+v after wakes %v; want %+v after %v", name, ll, seen, wantErr, want)
		}
	}
	for name, drive := range map[string]func(*Scheduler) error{"run": (*Scheduler).Run, "parked": parked} {
		var seen []Time
		s := NewScheduler(1, WithBudget(Budget{MaxVirtual: max}))
		chain(s, &seen)
		check(name, drive(s), seen)
	}
	var seen []Time
	c := NewCluster(1, Millisecond, 1, WithClusterBudget(Budget{MaxVirtual: max}))
	chain(c.Shard(0), &seen)
	check("cluster", c.Run(), seen)
}

// TestInPlaceStopThenAdvance: a Proc that stops the simulation and then
// advances parks, as before: the loop ends without running the wake-up,
// and teardown unwinds the Proc.
func TestInPlaceStopThenAdvance(t *testing.T) {
	s := NewScheduler(1)
	reached := false
	s.Spawn("stopper", func(p *Proc) {
		p.Advance(Microsecond)
		s.Stop()
		p.Advance(Microsecond)
		reached = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if reached || s.Now() != Microsecond || s.Executed() != 2 {
		t.Errorf("ran past Stop: reached %v, now %v, executed %d; want false, 1µs, 2",
			reached, s.Now(), s.Executed())
	}
}

// TestInPlaceKilledProcParks: a Proc killed by another Proc unwinds
// through a deferred Advance. The killed Proc parks there instead of
// running on, and its queued wake-up only finishes it, exactly as
// before: the killer keeps running and the event count is unchanged.
func TestInPlaceKilledProcParks(t *testing.T) {
	s := NewScheduler(1)
	var log []string
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() {
			p.Advance(Microsecond)
			log = append(log, "victim ran on after its kill")
		}()
		p.Advance(Second)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Advance(2 * Microsecond)
		s.Kill(victim)
		log = append(log, fmt.Sprintf("killed at %v", p.Now()))
		p.Advance(5 * Microsecond)
		log = append(log, fmt.Sprintf("killer done at %v", p.Now()))
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"killed at 2.000us", "killer done at 7.000us"}
	if !reflect.DeepEqual(log, want) {
		t.Errorf("log %q, want %q", log, want)
	}
	// victim start, killer start, killer at 2µs, victim's deferred wake at
	// 3µs, killer at 7µs; victim's original wake at 1s is a no-op event.
	if !victim.done || s.Executed() != 6 || victim.steps != 2 {
		t.Errorf("victim done %v, executed %d, victim steps %d; want true, 6, 2",
			victim.done, s.Executed(), victim.steps)
	}
}

// TestInPlaceAfterFatalPanic: a Proc whose Kill makes the victim panic
// while it unwinds parks at its next Advance, so the loop returns the
// victim's panic before the killer runs on.
func TestInPlaceAfterFatalPanic(t *testing.T) {
	s := NewScheduler(1)
	ranOn := false
	victim := s.Spawn("victim", func(p *Proc) {
		defer func() { panic("unwind failed") }()
		p.Advance(Second)
	})
	s.Spawn("killer", func(p *Proc) {
		p.Advance(Microsecond)
		s.Kill(victim)
		p.Advance(Microsecond)
		ranOn = true
	})
	if pp, ok := s.Run().(*ProcPanicError); !ok || pp.Proc != "victim" {
		t.Errorf("Run returned %v, want the victim's *ProcPanicError", pp)
	}
	if ranOn || s.Now() != Microsecond || s.Executed() != 3 {
		t.Errorf("killer ran on %v, now %v, executed %d; want false, 1us, 3", ranOn, s.Now(), s.Executed())
	}
}

// TestInPlaceOverflowPanics: an Advance whose wake-up time overflows is
// refused as an event in the past, as when it parked, instead of turning
// the clock back in place.
func TestInPlaceOverflowPanics(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("overflow", func(p *Proc) {
		p.Advance(Microsecond)
		p.Advance(math.MaxInt64)
	})
	pp, ok := s.Run().(*ProcPanicError)
	if !ok || !strings.Contains(fmt.Sprint(pp.Value), "before now") || s.Now() != Microsecond {
		t.Errorf("Run returned %v at %v, want a scheduled-in-the-past panic at 1us", pp, s.Now())
	}
}

// TestInPlaceDrainUntilPerEvent: under a DrainUntil predicate the loop
// still consults the predicate after every event, so a bridge pumping one
// command at a time sees each wake-up and can stop between any two.
func TestInPlaceDrainUntilPerEvent(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("chain", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Advance(Microsecond)
		}
	})
	calls := 0
	if err := s.DrainUntil(func() bool { calls++; return calls == 3 }); err != nil {
		t.Fatal(err)
	}
	if s.Executed() != 3 || s.Now() != 2*Microsecond {
		t.Fatalf("stopped after %d events at %v, want 3 at 2us", s.Executed(), s.Now())
	}
	calls = 0
	if err := s.DrainUntil(func() bool { calls++; return false }); err != nil {
		t.Fatal(err)
	}
	if calls != 3 || s.Executed() != 6 {
		t.Errorf("predicate called %d times over %d events, want 3 over 6 in all", calls, s.Executed())
	}
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}

// TestInPlaceWindowLimit: a wake-up at or beyond the window limit waits
// for the barrier, so a cast from another shard that lands first, or at
// the same instant with the earlier seq, runs in its (at, seq) place.
func TestInPlaceWindowLimit(t *testing.T) {
	const look = 10 * Microsecond
	for _, tc := range []struct {
		wake Time
		want []string
	}{
		// The cast arrives at 10µs, before the wake-up at 15µs.
		{15 * Microsecond, []string{"cast@10.000us", "wake@15.000us", "yield@15.000us"}},
		// The wake-up lands on the limit; the cast delivered at the
		// barrier takes a later seq, so it runs between the wake-up and
		// the Proc's Advance(0).
		{look, []string{"wake@10.000us", "cast@10.000us", "yield@10.000us"}},
	} {
		c := NewCluster(2, look, 1)
		var log []string
		s0, s1 := c.Shard(0), c.Shard(1)
		s0.Spawn("sleeper", func(p *Proc) {
			p.Advance(tc.wake)
			log = append(log, fmt.Sprintf("wake@%v", p.Now()))
			p.Advance(0)
			log = append(log, fmt.Sprintf("yield@%v", p.Now()))
		})
		s1.Spawn("caster", func(p *Proc) {
			s1.Cast(0, look, func() { log = append(log, fmt.Sprintf("cast@%v", s0.Now())) })
		})
		if err := c.Run(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(log, tc.want) {
			t.Errorf("wake %v: log %q, want %q", tc.wake, log, tc.want)
		}
	}
}
