package core

import (
	"bytes"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
	"dynprof/internal/vt"
)

// toyMPI builds a small MPI application: a setup function and an
// iterated compute/exchange pair. With args["confsync"] set, each
// iteration ends in a VT_confsync safe point.
func toyMPI() *guide.App {
	return &guide.App{
		Name: "toy",
		Lang: guide.MPIC,
		Funcs: []guide.Func{
			{Name: "toy_setup", Size: 10},
			{Name: "toy_compute", Size: 40},
			{Name: "toy_exchange", Size: 20},
		},
		Subset:      []string{"toy_compute"},
		DefaultArgs: map[string]int{"iters": 6},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			c.Call(c.Fn("toy_setup"), func() { c.T.Work(40_000) })
			for i := 0; i < c.Arg("iters", 1); i++ {
				c.Call(c.Fn("toy_compute"), func() { c.T.Work(150_000) })
				c.Call(c.Fn("toy_exchange"), func() { c.MPI.Barrier() })
				if c.Arg("confsync", 0) != 0 {
					c.VT.ConfSync(c.MPI, false, nil)
				}
			}
			c.MPI.Finalize()
		},
	}
}

func toyOMP() *guide.App {
	return &guide.App{
		Name:  "toyomp",
		Lang:  guide.OMPF77,
		Funcs: []guide.Func{{Name: "omp_kernel", Size: 30}},
		Main: func(c *guide.Ctx) {
			for i := 0; i < 4; i++ {
				c.OMP.Parallel(c.T, "loop", func(t *proc.Thread, id int) {
					t.Call(c.Sym(c.Fn("omp_kernel")), func() { t.Work(120_000) })
				})
			}
		},
	}
}

// runSession drives a dynprof script against app and returns the session.
func runSession(t *testing.T, app *guide.App, procs int, script string, files map[string]string, args map[string]int) *Session {
	t.Helper()
	s := des.NewScheduler(17)
	var ss *Session
	s.Spawn("dynprof", func(p *des.Proc) {
		var err error
		ss, err = NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     app,
			Procs:   procs,
			Files:   files,
			Args:    args,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := ss.RunScript(p, strings.NewReader(script)); err != nil {
			t.Error(err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ss == nil {
		t.Fatal("session never created")
	}
	if !ss.Job().Done() {
		t.Fatal("target did not finish")
	}
	return ss
}

func TestTable1Commands(t *testing.T) {
	// Every command and shortcut of Table 1 must be recognised.
	cmds := Commands()
	if len(cmds) != 8 {
		t.Fatalf("command count = %d, want 8", len(cmds))
	}
	if len(Shortcuts) != len(cmds) {
		t.Errorf("%d shortcuts for %d commands", len(Shortcuts), len(cmds))
	}
	for sc, full := range Shortcuts {
		found := false
		for _, c := range cmds {
			if c.Name == full {
				found = true
			}
		}
		if !found {
			t.Errorf("shortcut %q maps to unknown command %q", sc, full)
		}
	}
	var out bytes.Buffer
	s := des.NewScheduler(17)
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, err := NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     toyMPI(),
			Procs:   2,
			Output:  &out,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ss.Exec(p, "h"); err != nil {
			t.Errorf("help failed: %v", err)
		}
		if _, err := ss.Exec(p, "bogus"); err == nil {
			t.Error("unknown command accepted")
		}
		if _, err := ss.Exec(p, "w 0.5"); err != nil {
			t.Errorf("wait failed: %v", err)
		}
		// Non-finite durations, and durations whose end overflows the
		// virtual clock, are refused rather than advancing it backwards.
		for _, bad := range []string{"w notanumber", "w -1", "w NaN", "wait inf", "w -Inf", "w 1e300", "w 9.3e9"} {
			if _, err := ss.Exec(p, bad); err == nil || !strings.Contains(err.Error(), "bad wait duration") {
				t.Errorf("%q: err = %v, want a bad wait duration", bad, err)
			}
		}
		if _, err := ss.Exec(p, "w 9e9"); err != nil {
			t.Errorf("wait failed: %v", err)
		}
		if _, err := ss.Exec(p, "w 9e9"); err == nil {
			t.Error("a wait past the end of the virtual clock was accepted")
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, word := range []string{"insert-file", "remove-file", "start", "quit", "wait"} {
		if !strings.Contains(out.String(), word) {
			t.Errorf("help output missing %q", word)
		}
	}
}

func TestDynamicInstrumentationEndToEnd(t *testing.T) {
	ss := runSession(t, toyMPI(), 4, "i toy_compute\ns\nq\n", nil, nil)
	col := ss.Job().Collector()
	enters := map[string]int{}
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters[col.FuncName(e.Rank, e.ID)]++
		}
	}
	// Only the dynamically instrumented function appears: 6 iters x 4 ranks.
	if enters["toy_compute"] != 24 {
		t.Fatalf("toy_compute enters = %d, want 24 (events: %v)", enters["toy_compute"], enters)
	}
	if len(enters) != 1 {
		t.Fatalf("unexpected instrumented functions: %v", enters)
	}
	if got := ss.Instrumented(); len(got) != 1 || got[0] != "toy_compute" {
		t.Fatalf("Instrumented() = %v", got)
	}
}

func TestDeferredInsertWaitsForCallback(t *testing.T) {
	// Insert requested before start: physically installed only after the
	// MPI_Init callback, while the ranks spin.
	ss := runSession(t, toyMPI(), 2, "i toy_setup\ni toy_compute\ns\nq\n", nil, nil)
	if !ss.Ready() {
		t.Fatal("session never became ready")
	}
	// toy_setup runs right after MPI_Init — its events prove the install
	// happened during the spin, before the main loop.
	col := ss.Job().Collector()
	setups := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter && col.FuncName(e.Rank, e.ID) == "toy_setup" {
			setups++
		}
	}
	if setups != 2 {
		t.Fatalf("toy_setup enters = %d, want 2", setups)
	}
}

func TestRemoveCancelsPendingInsert(t *testing.T) {
	ss := runSession(t, toyMPI(), 2, "i toy_setup\nr toy_setup\ns\nq\n", nil, nil)
	for _, e := range ss.Job().Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			t.Fatalf("cancelled insert still recorded %+v", e)
		}
	}
}

func TestInsertFileAndRemoveFile(t *testing.T) {
	files := map[string]string{
		"subset.txt": "toy_compute\ntoy_exchange\n",
	}
	ss := runSession(t, toyMPI(), 2, "if subset.txt\ns\nw 0.1\nrf subset.txt\nq\n", files, nil)
	if got := len(ss.Instrumented()); got != 0 {
		t.Fatalf("functions still instrumented after remove-file: %v", ss.Instrumented())
	}
	// The user functions must be pristine again; only the resident
	// init-callback trampoline at MPI_Init remains in the heap.
	for _, pr := range ss.Job().Processes() {
		img := pr.Image()
		for _, fn := range []string{"toy_compute", "toy_exchange"} {
			sym := img.MustLookup(fn)
			if img.Patched(sym, image.EntryPoint, 0) {
				t.Fatalf("%s: %s still patched after remove-file", pr.Name(), fn)
			}
		}
		const initProbeWords = 7 // base trampoline (5) + one mini (2)
		if img.HeapWords() != initProbeWords {
			t.Fatalf("%s heap words = %d, want only the init probe's %d",
				pr.Name(), img.HeapWords(), initProbeWords)
		}
	}
}

func TestInsertFileMissing(t *testing.T) {
	var out bytes.Buffer
	s := des.NewScheduler(17)
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, err := NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"), App: toyMPI(), Procs: 2, Output: &out,
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ss.Exec(p, "if nosuch.txt"); err == nil {
			t.Error("missing file accepted")
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMidRunInsert(t *testing.T) {
	// Start uninstrumented, then insert while the application computes.
	args := map[string]int{"iters": 20000}
	ss := runSession(t, toyMPI(), 2, "s\nw 2\ni toy_compute\nq\n", nil, args)
	col := ss.Job().Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters++
		}
	}
	if enters == 0 {
		t.Fatal("mid-run insert recorded nothing")
	}
	// Fewer than the full run's worth: instrumentation arrived late.
	if enters >= 2*20000 {
		t.Fatalf("enters = %d, want < %d (late insertion)", enters, 2*20000)
	}
}

func TestMidRunRemove(t *testing.T) {
	args := map[string]int{"iters": 20000}
	ss := runSession(t, toyMPI(), 2, "i toy_compute\ns\nw 2\nr toy_compute\nq\n", nil, args)
	if len(ss.Instrumented()) != 0 {
		t.Fatalf("still instrumented: %v", ss.Instrumented())
	}
	col := ss.Job().Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters++
		}
	}
	if enters == 0 || enters >= 2*20000 {
		t.Fatalf("enters = %d, want partial coverage", enters)
	}
}

func TestUnknownFunctionInsert(t *testing.T) {
	var out bytes.Buffer
	s := des.NewScheduler(17)
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, err := NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"), App: toyMPI(), Procs: 2, Output: &out,
		})
		if err != nil {
			t.Error(err)
			return
		}
		ss.Start(p)
		if err := ss.Insert(p, "not_a_function"); err == nil {
			t.Error("insert of unknown function succeeded")
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "no such function") {
		t.Fatalf("tool output missing diagnostic: %q", out.String())
	}
}

func TestOMPSession(t *testing.T) {
	ss := runSession(t, toyOMP(), 4, "i omp_kernel\ns\nq\n", nil, nil)
	col := ss.Job().Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter && col.FuncName(e.Rank, e.ID) == "omp_kernel" {
			enters++
		}
	}
	// 4 regions x 4 threads, one kernel call each.
	if enters != 16 {
		t.Fatalf("omp_kernel enters = %d, want 16", enters)
	}
}

func TestCreateAndInstrumentGrowsWithRanks(t *testing.T) {
	timeFor := func(n int) des.Time {
		ss := runSession(t, toyMPI(), n, "i toy_compute\ns\nq\n", nil, nil)
		return ss.CreateAndInstrumentTime()
	}
	t2, t16 := timeFor(2), timeFor(16)
	if t16 <= t2 {
		t.Fatalf("create+instrument: %v at 2 ranks vs %v at 16; must grow", t2, t16)
	}
}

func TestCreateAndInstrumentFlatForOMP(t *testing.T) {
	// A single OpenMP process means a single image to patch, so the time
	// to create and instrument "does not increase with the number of
	// processors".
	timeFor := func(threads int) des.Time {
		ss := runSession(t, toyOMP(), threads, "i omp_kernel\ns\nq\n", nil, nil)
		return ss.CreateAndInstrumentTime()
	}
	t1, t8 := timeFor(1), timeFor(8)
	ratio := float64(t8) / float64(t1)
	if ratio > 1.1 || ratio < 0.9 {
		t.Fatalf("OMP create+instrument not flat: %v at 1 thread, %v at 8", t1, t8)
	}
}

func TestTimefileRecordsPhases(t *testing.T) {
	ss := runSession(t, toyMPI(), 2, "i toy_compute\ns\nq\n", nil, nil)
	tf := ss.Timefile()
	for _, phase := range []string{"create", "attach", "init-probe", "instrument"} {
		if tf.Total(phase) <= 0 {
			t.Errorf("timefile has no time for phase %q", phase)
		}
	}
	var buf bytes.Buffer
	if err := tf.Write(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "create") {
		t.Fatal("timefile text missing create phase")
	}
}

// runControlMonitor runs toyMPI on two ranks under a ControlMonitor whose
// DPCL system models mach, deactivating toy_compute at the first stop.
func runControlMonitor(t *testing.T, mach *machine.Config) (*ControlMonitor, *guide.Job) {
	t.Helper()
	s := des.NewScheduler(17)
	app := toyMPI()
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	job, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs: 2,
		Hold:  true, // release only once the monitor's breakpoint is armed
		Args:  map[string]int{"iters": 5, "confsync": 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	sys := dpcl.NewSystem(s, mach)
	var monitor *ControlMonitor
	s.Spawn("monitor", func(p *des.Proc) {
		monitor = NewControlMonitor(p, sys, job)
		job.Release()
		first := true
		monitor.Serve(p, func(hit dpcl.Event) []vt.Change {
			if first {
				first = false
				return []vt.Change{{Pattern: "toy_compute", Active: false}}
			}
			return nil
		})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return monitor, job
}

func TestControlMonitorAppliesChanges(t *testing.T) {
	monitor, job := runControlMonitor(t, machine.MustNew("ibm-power3"))
	if monitor.Hits() != 5 { // one stop per confsync iteration (rank 0 only)
		t.Fatalf("monitor hits = %d, want 5", monitor.Hits())
	}
	for r := 0; r < 2; r++ {
		v := job.VT(r)
		if v.Active(v.FuncDef("toy_compute")) {
			t.Fatalf("rank %d: change not distributed", r)
		}
	}
}

// TestControlMonitorOnCrashPlan: a daemon crash plan makes the DPCL system
// crashable, so its daemons track suspends. The monitor's resumes must
// still release the breakpoint stops: with a crash due after the run, the
// run must match the fault-free one's stops; with a restart window that
// swallows a stop, it must still finish and distribute the change (an
// untracked stop, or one credited to the dead daemon, got its resume
// refused and deadlocked the run).
func TestControlMonitorOnCrashPlan(t *testing.T) {
	crashed := func(c fault.DaemonCrash) *machine.Config {
		return machine.MustNew("ibm-power3", machine.WithFaults(&fault.Plan{DaemonCrashes: []fault.DaemonCrash{c}}))
	}
	clean, _ := runControlMonitor(t, machine.MustNew("ibm-power3"))
	monitor, job := runControlMonitor(t, crashed(fault.DaemonCrash{Node: 0, At: 3600 * des.Second}))
	if monitor.Hits() != clean.Hits() {
		t.Fatalf("monitor hits = %d, want the fault-free run's %d", monitor.Hits(), clean.Hits())
	}
	_, midRun := runControlMonitor(t, crashed(fault.DaemonCrash{Node: 0, At: 80 * des.Millisecond, Restart: 200 * des.Millisecond}))
	for _, j := range []*guide.Job{job, midRun} {
		if v := j.VT(1); v.Active(v.FuncDef("toy_compute")) {
			t.Fatal("change not distributed")
		}
	}
}

func TestHybridConfSyncInsertion(t *testing.T) {
	// Section 5.1: dynprof dynamically inserts a VT_confsync safe point;
	// changes staged on rank 0 propagate at the next crossing.
	s := des.NewScheduler(17)
	var ss *Session
	s.Spawn("dynprof", func(p *des.Proc) {
		var err error
		ss, err = NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     toyMPI(),
			Procs:   2,
			Args:    map[string]int{"iters": 2000},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if err := ss.InsertConfSyncAt(p, "toy_exchange"); err != nil {
			t.Error(err)
			return
		}
		ss.Start(p)
		ss.Job().VT(0).QueueChanges([]vt.Change{{Pattern: "toy_*", Active: false}})
		if err := ss.InsertConfSyncAt(p, "toy_compute"); err == nil {
			t.Error("post-start confsync insertion must be refused")
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	for r := 0; r < 2; r++ {
		v := ss.Job().VT(r)
		if v.Active(v.FuncDef("toy_compute")) {
			t.Fatalf("rank %d: hybrid confsync did not distribute the change", r)
		}
	}
}

func TestQuitLeavesInstrumentationActive(t *testing.T) {
	args := map[string]int{"iters": 6000}
	ss := runSession(t, toyMPI(), 2, "i toy_compute\ns\nq\n", nil, args)
	// All iterations recorded even though the tool detached immediately:
	// "all instrumentation that is active prior to quitting will remain
	// active".
	col := ss.Job().Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters++
		}
	}
	if enters != 2*6000 {
		t.Fatalf("enters = %d, want %d", enters, 2*6000)
	}
}

func TestSessionWithUninstrumentedOMPRun(t *testing.T) {
	ss := runSession(t, toyOMP(), 2, "s\nq\n", nil, nil)
	if ss.Job().MainElapsed() <= 0 {
		t.Fatal("no main elapsed time")
	}
}
