package proc

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/machine"
)

func testImage(t testing.TB, names ...string) *image.Image {
	t.Helper()
	b := image.NewBuilder("t")
	for _, n := range names {
		if _, err := b.AddFunc(image.FuncSpec{Name: n, BodyWords: 4, Exits: 1}); err != nil {
			t.Fatal(err)
		}
	}
	return b.Build()
}

// symOf resolves a function of th's process image for the call gate.
func symOf(th *Thread, name string) *image.Symbol { return th.Process().Image().MustLookup(name) }

func TestCallGateChargesTime(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	img := testImage(t, "f")
	pr := NewProcess(s, cfg, "p", 0, 0, img)
	var elapsed des.Time
	pr.Start(func(th *Thread) {
		th.Call(symOf(th, "f"), func() { th.Work(375_000) }) // 1ms at 375 MHz
		th.Sync()
		elapsed = th.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed < des.Millisecond {
		t.Fatalf("elapsed %v, want >= 1ms of charged work", elapsed)
	}
	if !pr.Exited() {
		t.Fatal("process not marked exited")
	}
}

func TestPreciseClockIncludesPending(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "p", 0, 0, testImage(t, "f"))
	pr.Start(func(th *Thread) {
		base := th.Now()
		th.Work(37_500) // 0.1ms, below the sync batch
		if got := th.Now() - base; got < des.Time(0.09*float64(des.Millisecond)) {
			t.Errorf("precise clock advanced only %v", got)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestNestedCallsFireProbesInOrder(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	img := testImage(t, "outer", "inner")
	var events []string
	for _, n := range []string{"outer", "inner"} {
		n := n
		sym := img.MustLookup(n)
		idB := img.NewSnippetID()
		img.BindSnippet(idB, func(ctx image.ExecCtx) { events = append(events, "enter "+n) })
		idE := img.NewSnippetID()
		img.BindSnippet(idE, func(ctx image.ExecCtx) { events = append(events, "exit "+n) })
		hb, err := img.InsertProbe(sym, image.EntryPoint, 0, idB)
		if err != nil {
			t.Fatal(err)
		}
		hb.SetActive(true)
		he, err := img.InsertProbe(sym, image.ExitPoint, 0, idE)
		if err != nil {
			t.Fatal(err)
		}
		he.SetActive(true)
	}
	pr := NewProcess(s, cfg, "p", 0, 0, img)
	pr.Start(func(th *Thread) {
		th.Call(symOf(th, "outer"), func() {
			th.Call(symOf(th, "inner"), nil)
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[enter outer enter inner exit inner exit outer]"
	if got := len(events); got != 4 {
		t.Fatalf("events = %v", events)
	}
	gotStr := "[" + events[0] + " " + events[1] + " " + events[2] + " " + events[3] + "]"
	if gotStr != want {
		t.Fatalf("events = %v, want %v", gotStr, want)
	}
}

func TestSuspendResumeAtSafePoint(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "app", 0, 0, testImage(t, "f"))
	var stoppedSeen bool
	var resumedAt des.Time
	pr.Start(func(th *Thread) {
		for i := 0; i < 100; i++ {
			th.Call(symOf(th, "f"), func() { th.Work(20_000) })
		}
		resumedAt = th.Now()
	})
	s.Spawn("ctl", func(p *des.Proc) {
		p.Advance(10 * des.Microsecond)
		pr.RequestSuspend()
		pr.WaitStopped(p)
		stoppedSeen = true
		p.Advance(5 * des.Millisecond) // patching happens here
		pr.Resume()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !stoppedSeen {
		t.Fatal("WaitStopped never completed")
	}
	if resumedAt < 5*des.Millisecond {
		t.Fatalf("app finished at %v, before the 5ms suspension ended", resumedAt)
	}
	if got := pr.Threads()[0].SuspendedTime(); got < 4*des.Millisecond {
		t.Fatalf("suspended time %v, want ~5ms", got)
	}
}

func TestSuspendCoversMultipleThreads(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "omp", 0, 0, testImage(t, "f"))
	stopped := false
	pr.Start(func(th *Thread) {
		for i := 0; i < 3; i++ {
			pr.SpawnThread(func(w *Thread) {
				for k := 0; k < 50; k++ {
					w.Call(symOf(w, "f"), func() { w.Work(20_000) })
				}
			})
		}
		for i := 0; i < 50; i++ {
			th.Call(symOf(th, "f"), func() { th.Work(20_000) })
		}
	})
	s.Spawn("ctl", func(p *des.Proc) {
		p.Advance(20 * des.Microsecond)
		pr.RequestSuspend()
		pr.WaitStopped(p)
		stopped = true
		pr.Resume()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("blocking suspend with 4 threads never completed")
	}
	if len(pr.Threads()) != 4 {
		t.Fatalf("threads = %d", len(pr.Threads()))
	}
}

func TestBlockedThreadCountsAsStopped(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "app", 0, 0, testImage(t, "f"))
	release := des.NewGate("release", false)
	pr.Start(func(th *Thread) {
		// Model a thread blocked in a recv that cannot complete while
		// the controller holds the app suspended.
		th.Block(func(p *des.Proc) { p.Await(release) })
	})
	order := []string{}
	s.Spawn("ctl", func(p *des.Proc) {
		p.Advance(des.Microsecond)
		pr.RequestSuspend()
		pr.WaitStopped(p) // must succeed though the thread is blocked
		order = append(order, "stopped")
		pr.Resume()
		release.Set(true)
		order = append(order, "released")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 2 || order[0] != "stopped" {
		t.Fatalf("order = %v", order)
	}
}

func TestBreakpointHandler(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	pr := NewProcess(s, cfg, "app", 0, 0, testImage(t, "f"))
	var hits []string
	pr.SetBreakpointHandler(func(th *Thread, name string) {
		hits = append(hits, name)
		pr.RequestSuspend()
	})
	var doneAt des.Time
	pr.Start(func(th *Thread) {
		th.Breakpoint("configuration_break")
		doneAt = th.Now()
	})
	s.Spawn("ctl", func(p *des.Proc) {
		p.Advance(3 * des.Millisecond)
		pr.Resume()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(hits) != 1 || hits[0] != "configuration_break" {
		t.Fatalf("hits = %v", hits)
	}
	if doneAt < 3*des.Millisecond {
		t.Fatalf("thread continued at %v despite suspend from breakpoint", doneAt)
	}
}

func TestExitRotationCoversAllExits(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	b := image.NewBuilder("t")
	if _, err := b.AddFunc(image.FuncSpec{Name: "multi", BodyWords: 2, Exits: 3}); err != nil {
		t.Fatal(err)
	}
	img := b.Build()
	sym := img.MustLookup("multi")
	seen := make(map[int]bool)
	for e := 0; e < 3; e++ {
		e := e
		id := img.NewSnippetID()
		img.BindSnippet(id, func(ctx image.ExecCtx) { seen[e] = true })
		h, err := img.InsertProbe(sym, image.ExitPoint, e, id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetActive(true)
	}
	pr := NewProcess(s, cfg, "p", 0, 0, img)
	pr.Start(func(th *Thread) {
		for i := 0; i < 9; i++ {
			th.Call(symOf(th, "multi"), nil)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("exit coverage = %v, want all 3 exits", seen)
	}
}

func TestInstrCyclesAccounting(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ibm-power3")
	img := testImage(t, "f")
	sym := img.MustLookup("f")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx image.ExecCtx) { ctx.Charge(500) })
	h, _ := img.InsertProbe(sym, image.EntryPoint, 0, id)
	h.SetActive(true)
	pr := NewProcess(s, cfg, "p", 0, 0, img)
	var instr int64
	pr.Start(func(th *Thread) {
		th.Call(symOf(th, "f"), nil)
		instr = th.InstrCycles()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if instr < 500 {
		t.Fatalf("instr cycles = %d, want >= snippet's 500", instr)
	}
}

func TestWaitExit(t *testing.T) {
	s := des.NewScheduler(1)
	cfg := machine.MustNew("ia32-linux")
	pr := NewProcess(s, cfg, "p", 0, 0, testImage(t, "f"))
	pr.Start(func(th *Thread) { th.Work(800_000) }) // 1ms at 800 MHz
	var sawExit des.Time
	s.Spawn("waiter", func(p *des.Proc) {
		pr.WaitExit(p)
		sawExit = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if sawExit < des.Millisecond {
		t.Fatalf("waiter released at %v, want >= 1ms", sawExit)
	}
}
