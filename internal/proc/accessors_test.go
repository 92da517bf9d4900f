package proc

import (
	"errors"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/machine"
)

func TestAccessors(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	img := testImage(t, "f")
	pr := NewProcess(s, cfg, "acc", 3, 2, img)
	if pr.Name() != "acc" || pr.Rank() != 3 || pr.Node() != 2 {
		t.Fatalf("identity accessors wrong: %s %d %d", pr.Name(), pr.Rank(), pr.Node())
	}
	if pr.Image() != img || pr.Config() != cfg || pr.Scheduler() != s {
		t.Fatal("reference accessors wrong")
	}
	if pr.Suspended() {
		t.Fatal("fresh process suspended")
	}
	pr.Start(func(th *Thread) {
		if th.ThreadID() != 0 {
			t.Errorf("thread id %d, want 0", th.ThreadID())
		}
		if th.Process() != pr {
			t.Error("Process() wrong")
		}
		if th.DES() == nil || th.DES().Name() == "" {
			t.Error("DES proc missing")
		}
		th.WorkTime(des.Millisecond)
		th.Call(symOf(th, "f"), nil)
		if th.Calls() != 1 {
			t.Errorf("calls = %d", th.Calls())
		}
		if th.CurrentFunction() != "" {
			t.Errorf("outside any call but CurrentFunction = %q", th.CurrentFunction())
		}
		th.Call(symOf(th, "f"), func() {
			if th.CurrentFunction() != "f" || th.StackDepth() != 1 {
				t.Errorf("stack wrong: %q depth %d", th.CurrentFunction(), th.StackDepth())
			}
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !pr.Exited() {
		t.Fatal("not exited")
	}
}

func TestWorkTimeAdvancesClock(t *testing.T) {
	s := des.NewScheduler(1)
	pr := NewProcess(s, machine.MustNew("ibm-power3"), "p", 0, 0, testImage(t, "f"))
	var now des.Time
	pr.Start(func(th *Thread) {
		th.WorkTime(7 * des.Millisecond)
		th.Sync()
		now = th.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if now < 6*des.Millisecond {
		t.Fatalf("WorkTime advanced only %v", now)
	}
}

func TestNegativeWorkPanics(t *testing.T) {
	s := des.NewScheduler(1)
	pr := NewProcess(s, machine.MustNew("ibm-power3"), "p", 0, 0, testImage(t, "f"))
	pr.Start(func(th *Thread) { th.Work(-1) })
	var pp *des.ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("negative work did not panic: Run returned %v", err)
	}
}
