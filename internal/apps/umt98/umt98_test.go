package umt98

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

func TestFunctionInventoryMatchesPaper(t *testing.T) {
	app := App()
	if got := len(app.Funcs); got != 44 {
		t.Fatalf("Umt98 has %d functions, the paper says 44", got)
	}
	if got := len(app.Subset); got != 6 {
		t.Fatalf("Umt98 subset has %d functions, the paper says 6", got)
	}
	if app.Lang != guide.OMPF77 {
		t.Fatalf("Umt98 must be OMP/F77 (Table 2), got %v", app.Lang)
	}
	names := make(map[string]bool)
	for _, f := range app.Funcs {
		if names[f.Name] {
			t.Fatalf("duplicate function %q", f.Name)
		}
		names[f.Name] = true
	}
	for _, s := range app.Subset {
		if !names[s] {
			t.Fatalf("subset function %q not in table", s)
		}
	}
}

func run(t *testing.T, opts guide.BuildOpts, threads int, args map[string]int) *guide.Job {
	t.Helper()
	bin, err := guide.Build(App(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(47)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: threads, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return j
}

var tinyArgs = map[string]int{"zones": 64, "angles": 8, "iters": 2}

func TestEveryDeclaredFunctionIsCalled(t *testing.T) {
	j := run(t, guide.BuildOpts{StaticInstrument: true}, 2, tinyArgs)
	v := j.VT(0)
	var missing []string
	for _, f := range App().Funcs {
		if v.Calls(v.FuncDef(f.Name)) == 0 {
			missing = append(missing, f.Name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("functions never called: %v", missing)
	}
}

func TestRunsOnOneToEightThreads(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		j := run(t, guide.BuildOpts{}, n, tinyArgs)
		if !j.Done() || j.MainElapsed() <= 0 {
			t.Fatalf("%d-thread run failed", n)
		}
	}
	// OpenMP restricts execution to a single SMP node: 9 threads on an
	// 8-way node must be refused.
	bin, err := guide.Build(App(), guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(47)
	if _, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 9}); err == nil {
		t.Fatal("9 OpenMP threads should exceed the node")
	}
}

func TestStrongScaling(t *testing.T) {
	// Fixed global problem: more threads, less time (Figure 7(d)).
	e1 := run(t, guide.BuildOpts{}, 1, nil).MainElapsed()
	e8 := run(t, guide.BuildOpts{}, 8, nil).MainElapsed()
	if ratio := float64(e1) / float64(e8); ratio < 3 {
		t.Fatalf("8-thread speedup only %.2fx (e1=%v e8=%v)", ratio, e1, e8)
	}
}

func TestThreadsProduceSameFluxAsSerial(t *testing.T) {
	// The threaded sweep must compute the same physics as one thread.
	sum := func(threads int) float64 {
		app := App()
		var checksum float64
		app.Main = func(c *guide.Ctx) {
			k := &kernel{c: c, rt: c.OMP}
			k.runMain()
			for _, p := range k.phi {
				checksum += p
			}
		}
		bin, err := guide.Build(app, guide.BuildOpts{})
		if err != nil {
			t.Fatal(err)
		}
		s := des.NewScheduler(47)
		if _, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin,
			guide.LaunchOpts{Procs: threads, Args: tinyArgs}); err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return checksum
	}
	s1, s4 := sum(1), sum(4)
	if s1 <= 0 {
		t.Fatal("no flux computed")
	}
	if diff := (s1 - s4) / s1; diff > 1e-12 || diff < -1e-12 {
		t.Fatalf("threaded checksum differs: %v vs %v", s1, s4)
	}
}

func TestInstrumentationOverheadNoticeable(t *testing.T) {
	// "While the variations among the instrumentation policies are not as
	// significant as with Smg98 and Sppm, there is still a noticeable
	// benefit from dynamic instrumentation."
	none := run(t, guide.BuildOpts{}, 4, nil).MainElapsed()
	full := run(t, guide.BuildOpts{StaticInstrument: true}, 4, nil).MainElapsed()
	ratio := float64(full) / float64(none)
	if ratio < 1.05 {
		t.Fatalf("Full/None = %.3f: overhead should be noticeable", ratio)
	}
	if ratio > 3 {
		t.Fatalf("Full/None = %.3f: overhead should be milder than Smg98's", ratio)
	}
}

func TestRegionEventsTraced(t *testing.T) {
	j := run(t, guide.BuildOpts{TraceAPI: true}, 4, tinyArgs)
	forks := 0
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.RegionFork {
			forks++
		}
	}
	if forks == 0 {
		t.Fatal("no parallel-region events traced")
	}
}
