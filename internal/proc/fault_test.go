package proc

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
)

// mcyc is one millisecond of work on the 375 MHz Power3 clock.
const mcyc = 375_000

func faultedMachine(t *testing.T, plan *fault.Plan) *machine.Config {
	t.Helper()
	return machine.MustNew("ibm-power3").WithFaultPlan(plan)
}

// TestSlowdownStretchesWork: a 2x slowdown on the process's node doubles
// the virtual time its computation takes; other nodes are untouched.
func TestSlowdownStretchesWork(t *testing.T) {
	cfg := faultedMachine(t, &fault.Plan{Slowdowns: []fault.Slowdown{{Node: 0, Factor: 2}}})
	s := des.NewScheduler(1)
	var slow, healthy des.Time
	prSlow := NewProcess(s, cfg, "slow", 0, 0, testImage(t, "f"))
	prSlow.Start(func(th *Thread) {
		th.Work(10 * mcyc)
		th.Sync()
		slow = th.Now()
	})
	prFast := NewProcess(s, cfg, "healthy", 1, 1, testImage(t, "f"))
	prFast.Start(func(th *Thread) {
		th.Work(10 * mcyc)
		th.Sync()
		healthy = th.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if healthy != 10*des.Millisecond {
		t.Errorf("healthy node took %v, want 10ms", healthy)
	}
	if slow != 20*des.Millisecond {
		t.Errorf("slowed node took %v, want 20ms", slow)
	}
}

// TestSlowdownPreciseClock: Thread.Now folds pending cycles in at the
// node's effective (slowed) rate.
func TestSlowdownPreciseClock(t *testing.T) {
	cfg := faultedMachine(t, &fault.Plan{Slowdowns: []fault.Slowdown{{Node: 0, Factor: 3}}})
	s := des.NewScheduler(1)
	pr := NewProcess(s, cfg, "p", 0, 0, testImage(t, "f"))
	pr.Start(func(th *Thread) {
		th.Work(mcyc)
		if got := th.Now(); got != 3*des.Millisecond {
			t.Errorf("precise clock = %v, want 3ms", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestStallFreezesComputation: work overlapping a stall window finishes
// late by the frozen time; work clear of the window is unaffected.
func TestStallFreezesComputation(t *testing.T) {
	cfg := faultedMachine(t, &fault.Plan{Stalls: []fault.Stall{
		{Node: 0, At: 4 * des.Millisecond, Duration: 6 * des.Millisecond},
	}})
	s := des.NewScheduler(1)
	var end des.Time
	pr := NewProcess(s, cfg, "p", 0, 0, testImage(t, "f"))
	pr.Start(func(th *Thread) {
		th.Work(10 * mcyc) // 10ms of work, frozen 4ms in for 6ms
		th.Sync()
		end = th.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 16*des.Millisecond {
		t.Errorf("stalled work finished at %v, want 16ms", end)
	}
}

// TestStallStretchCases: the walk-forward arithmetic across several
// windows, including starting inside a window and finishing before one.
func TestStallStretchCases(t *testing.T) {
	pr := &Process{clockScale: 1, stalls: []fault.Stall{
		{Node: 0, At: 10, Duration: 5},
		{Node: 0, At: 30, Duration: 10},
	}}
	cases := []struct{ start, d, want des.Time }{
		{0, 5, 5},   // finishes before the first window
		{0, 10, 10}, // completes exactly at the window boundary
		{12, 4, 7},  // starts inside a window: frozen until its end
		{0, 25, 30}, // crosses the first window, ends at the second's start
		{0, 22, 27}, // crosses the first window, ends between windows
		{50, 8, 8},  // past all windows
		{15, 0, 0},  // nothing to do
	}
	for _, c := range cases {
		if got := pr.stretchThroughStalls(c.start, c.d); got != c.want {
			t.Errorf("stretch(start=%d, d=%d) = %d, want %d", c.start, c.d, got, c.want)
		}
	}
}

// TestCrashStopsProcess: a crashed process stops computing, reports
// Exited/Crashed, and releases WaitExit without deadlocking the DES.
func TestCrashStopsProcess(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "victim", 0, 0, testImage(t, "f"))
	var steps int
	pr.Start(func(th *Thread) {
		for {
			th.Work(mcyc)
			th.Sync()
			steps++
		}
	})
	s.At(3500*des.Microsecond, func() { pr.Crash() })
	waited := false
	s.Spawn("observer", func(p *des.Proc) {
		pr.WaitExit(p)
		waited = true
		if !pr.Crashed() || !pr.Exited() {
			t.Error("crashed process must report Crashed and Exited")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if steps != 3 {
		t.Errorf("victim computed %d steps after crash at 3.5ms, want 3", steps)
	}
	if !waited {
		t.Error("WaitExit never released")
	}
	pr.Crash() // idempotent on event-free post-run state
}

// TestCrashFromOwnThread: a thread may crash its own process. The crash
// takes effect at that instruction — the caller never resumes — yet every
// other thread is still killed and WaitExit is still released.
func TestCrashFromOwnThread(t *testing.T) {
	// The budget turns a team thread that escaped the crash into a
	// LivelockError instead of a hang.
	s := des.NewScheduler(1, des.WithBudget(des.Budget{MaxVirtual: des.Second}))
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "victim", 0, 0, testImage(t, "f"))
	var teamSteps int
	var afterCrash bool
	pr.Start(func(th *Thread) {
		pr.SpawnThread(func(team *Thread) {
			for {
				team.Work(mcyc)
				team.Sync()
				teamSteps++
			}
		})
		th.Work(3*mcyc + mcyc/2)
		th.Sync()
		pr.Crash()
		afterCrash = true
	})
	waited := false
	s.Spawn("observer", func(p *des.Proc) {
		pr.WaitExit(p)
		waited = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if afterCrash {
		t.Error("the crashing thread resumed after Crash")
	}
	if teamSteps != 3 {
		t.Errorf("team thread computed %d steps after crash at 3.5ms, want 3", teamSteps)
	}
	if !waited || !pr.Crashed() {
		t.Errorf("WaitExit released=%v, Crashed=%v; want both", waited, pr.Crashed())
	}
}
