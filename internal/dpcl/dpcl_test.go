package dpcl

import (
	"fmt"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// rig builds n single-threaded target processes spread over the machine,
// each with its own clone of a two-function image.
type rig struct {
	s     *des.Scheduler
	mach  *machine.Config
	sys   *System
	procs []*proc.Process
}

func newRig(t testing.TB, n int) *rig {
	t.Helper()
	s := des.NewScheduler(99)
	mach := machine.MustNew("ibm-power3")
	place, err := machine.Pack(mach, n)
	if err != nil {
		t.Fatal(err)
	}
	b := image.NewBuilder("target")
	if _, err := b.AddFunc(image.FuncSpec{Name: "hot", BodyWords: 16, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(image.FuncSpec{Name: "cold", BodyWords: 8, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	tmpl := b.Build()
	r := &rig{s: s, mach: mach, sys: NewSystem(s, mach)}
	for i := 0; i < n; i++ {
		img := tmpl.Clone()
		pr := proc.NewProcess(s, mach, fmt.Sprintf("tgt%d", i), i, place.NodeOf(i), img)
		r.procs = append(r.procs, pr)
	}
	return r
}

// idle starts each target looping on "hot" until the given virtual time.
func (r *rig) idle(until des.Time) {
	for _, pr := range r.procs {
		pr := pr
		pr.Start(func(th *proc.Thread) {
			hot := pr.Image().MustLookup("hot")
			for th.Now() < until {
				th.Call(hot, func() { th.Work(30_000) })
			}
		})
	}
}

func TestAttachCreatesOneDaemonPerNode(t *testing.T) {
	r := newRig(t, 20) // 20 ranks over 3 nodes (8 per node)
	r.idle(des.Millisecond)
	done := false
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("user1")
		cl.Attach(p, r.procs)
		if got := len(cl.byNode); got != 3 {
			t.Errorf("daemons on %d nodes, want 3", got)
		}
		// Re-attaching the same node is free of daemon creation.
		cl.Attach(p, r.procs[:1])
		if got := len(cl.byNode); got != 3 {
			t.Errorf("re-attach changed daemon count to %d", got)
		}
		done = true
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !done {
		t.Fatal("tool never ran")
	}
}

func TestInstallActivateFireRemove(t *testing.T) {
	r := newRig(t, 4)
	fired := make([]int, 4)
	var probe *Probe
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		var err error
		probe, err = cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet {
				rank := pr.Rank()
				return func(ec image.ExecCtx) { fired[rank]++ }
			})
		if err != nil {
			t.Error(err)
			return
		}
		for _, pr := range r.procs {
			if !pr.Image().Patched(pr.Image().MustLookup("hot"), image.EntryPoint, 0) {
				t.Errorf("%s image not patched", pr.Name())
			}
		}
		cl.Activate(p, probe)
		p.Advance(200 * des.Millisecond) // let the apps hit the probe
		cl.Deactivate(p, probe)
		if err := cl.Remove(p, probe); err != nil {
			t.Error(err)
		}
		for _, pr := range r.procs {
			if pr.Image().Patched(pr.Image().MustLookup("hot"), image.EntryPoint, 0) {
				t.Errorf("%s image still patched after remove", pr.Name())
			}
		}
		cl.Disconnect()
	})
	r.idle(800 * des.Millisecond)
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, n := range fired {
		if n == 0 {
			t.Errorf("probe never fired on rank %d", rank)
		}
	}
}

func TestInstallProbeUnknownSymbol(t *testing.T) {
	r := newRig(t, 2)
	r.idle(des.Millisecond)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		_, err := cl.InstallProbe(p, r.procs, "nosuch", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet { return func(image.ExecCtx) {} })
		if err == nil {
			t.Error("install into unknown symbol succeeded")
		}
		cl.Disconnect()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAsynchronousDeliverySkew(t *testing.T) {
	// Activations land at different virtual times on different nodes —
	// the asynchrony the paper's Figure 6 barriers exist to absorb.
	r := newRig(t, 16) // 2 nodes
	firstFire := make(map[int]des.Time)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet {
				rank := pr.Rank()
				return func(ec image.ExecCtx) {
					if _, seen := firstFire[rank]; !seen {
						firstFire[rank] = ec.Now()
					}
				}
			})
		if err != nil {
			t.Error(err)
			return
		}
		cl.Activate(p, probe)
	})
	r.idle(2 * des.Second)
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	distinct := make(map[des.Time]bool)
	for _, ts := range firstFire {
		distinct[ts] = true
	}
	if len(distinct) < 2 {
		t.Fatalf("all %d ranks saw the probe at the same instant; wanted skew", len(firstFire))
	}
}

func TestBlockingSuspendAndResume(t *testing.T) {
	r := newRig(t, 3)
	r.idle(3 * des.Second)
	var stoppedAt, resumedAt des.Time
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		p.Advance(100 * des.Millisecond)
		cl.Suspend(p, r.procs, true)
		for _, pr := range r.procs {
			if !pr.Suspended() {
				t.Errorf("%s not suspended after blocking suspend", pr.Name())
			}
		}
		stoppedAt = p.Now()
		p.Advance(50 * des.Millisecond)
		cl.Resume(p, r.procs)
		resumedAt = p.Now()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if stoppedAt == 0 || resumedAt <= stoppedAt {
		t.Fatalf("suspend/resume times: %v %v", stoppedAt, resumedAt)
	}
	for _, pr := range r.procs {
		if !pr.Exited() {
			t.Errorf("%s never finished after resume", pr.Name())
		}
	}
}

func TestCallbackDelivery(t *testing.T) {
	r := newRig(t, 2)
	r.idle(des.Millisecond)
	var got Event
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		sent := p.Now()
		cl.PostCallback("init-done", 1)
		got = p.Recv(cl.Events()).(Event)
		if p.Now() <= sent {
			t.Error("callback arrived instantaneously; should see daemon latency")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Kind != "callback" || got.Tag != "init-done" || got.Rank != 1 {
		t.Fatalf("event = %+v", got)
	}
}

func TestBreakpointWatchSuspendsAndNotifies(t *testing.T) {
	s := des.NewScheduler(5)
	mach := machine.MustNew("ibm-power3")
	b := image.NewBuilder("t")
	if _, err := b.AddFunc(image.FuncSpec{Name: "f", BodyWords: 4, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	pr := proc.NewProcess(s, mach, "tgt", 0, 0, b.Build())
	sys := NewSystem(s, mach)
	var hitAt, resumedWork des.Time
	pr.Start(func(th *proc.Thread) {
		th.WorkTime(500 * des.Millisecond) // long enough for the monitor to attach
		th.Sync()
		hitAt = th.Now()
		th.Breakpoint("configuration_break")
		th.Sync()
		resumedWork = th.Now()
	})
	s.Spawn("monitor", func(p *des.Proc) {
		cl := sys.Connect("u")
		cl.Attach(p, []*proc.Process{pr})
		cl.WatchBreakpoints([]*proc.Process{pr}, "configuration_break")
		ev := p.Recv(cl.Events()).(Event)
		if ev.Kind != "breakpoint" || ev.Tag != "configuration_break" {
			t.Errorf("event = %+v", ev)
		}
		p.Advance(30 * des.Millisecond) // the user "reconfigures"
		cl.Resume(p, []*proc.Process{pr})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if resumedWork-hitAt < 30*des.Millisecond {
		t.Fatalf("app resumed after %v, want >= 30ms of monitor hold", resumedWork-hitAt)
	}
}

func TestCreateCostGrowsWithProcs(t *testing.T) {
	if CreateCost(1, 1) >= CreateCost(8, 64) {
		t.Fatal("create cost must grow with job size")
	}
	if CreateCost(1, 1) < des.Second {
		t.Fatal("create cost unrealistically small")
	}
}

func TestDisconnectStopsDaemons(t *testing.T) {
	r := newRig(t, 2)
	r.idle(des.Millisecond)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		cl.Disconnect()
		// A fresh connect must build a fresh daemon without panicking.
		cl2 := r.sys.Connect("u")
		cl2.Attach(p, r.procs)
		cl2.Disconnect()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}
