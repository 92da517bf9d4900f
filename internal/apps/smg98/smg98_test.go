package smg98

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

func TestFunctionInventoryMatchesPaper(t *testing.T) {
	app := App()
	if got := len(app.Funcs); got != 199 {
		t.Fatalf("Smg98 has %d functions, the paper says 199", got)
	}
	if got := len(app.Subset); got != 62 {
		t.Fatalf("Smg98 subset has %d functions, the paper says 62", got)
	}
	names := make(map[string]bool, len(app.Funcs))
	for _, f := range app.Funcs {
		if names[f.Name] {
			t.Fatalf("duplicate function %q", f.Name)
		}
		names[f.Name] = true
	}
	for _, s := range app.Subset {
		if !names[s] {
			t.Fatalf("subset function %q not in the table", s)
		}
	}
	if app.Lang != guide.MPIC {
		t.Fatalf("Smg98 must be MPI/C (Table 2), got %v", app.Lang)
	}
}

// run executes smg98 with the given build and returns the job.
func run(t *testing.T, opts guide.BuildOpts, procs int, args map[string]int) *guide.Job {
	t.Helper()
	bin, err := guide.Build(App(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(31)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: procs, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("smg98 did not finish")
	}
	return j
}

var tinyArgs = map[string]int{"nx": 6, "ny": 6, "nz": 8, "iters": 2}

func TestEveryDeclaredFunctionIsCalled(t *testing.T) {
	j := run(t, guide.BuildOpts{StaticInstrument: true}, 2, tinyArgs)
	missing := []string{}
	for _, f := range App().Funcs {
		called := false
		// Some functions only run on ranks with a particular neighbour
		// topology (e.g. unpacking the low ghost plane), so the check is
		// across the union of ranks.
		for r := 0; r < 2; r++ {
			v := j.VT(r)
			if v.Calls(v.FuncDef(f.Name)) > 0 {
				called = true
				break
			}
		}
		if !called {
			missing = append(missing, f.Name)
		}
	}
	if len(missing) > 0 {
		t.Fatalf("%d declared functions never called: %v", len(missing), missing)
	}
}

func TestMultigridReducesResidual(t *testing.T) {
	// Drive the kernel directly to inspect its numerics.
	bin, err := guide.Build(App(), guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(31)
	var st *solveStats
	app := App()
	app.Main = func(c *guide.Ctx) {
		c.MPI.Init()
		k := &kernel{c: c, m: c.MPI, rank: c.MPI.Rank(), size: c.MPI.Size()}
		levels := k.problemSetup(6, 6, 16)
		st = k.solve(levels, 6, 1e-9)
		k.problemDestroy(levels)
		c.MPI.Finalize()
	}
	bin2, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	_ = bin
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin2, guide.LaunchOpts{Procs: 2})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	_ = j
	if st == nil {
		t.Fatal("solver never ran")
	}
	if st.iters == 0 {
		t.Fatal("no V-cycles performed")
	}
	if !(st.final < 0.2*st.initial) {
		t.Fatalf("V-cycles barely converged: initial %.3e final %.3e after %d iters",
			st.initial, st.final, st.iters)
	}
	// The residual history must be monotonically decreasing.
	prev := st.initial
	for i, h := range st.history {
		if h > prev {
			t.Fatalf("residual increased at cycle %d: %.3e -> %.3e", i, prev, h)
		}
		prev = h
	}
}

func TestWeakScalingGlobalProblemGrows(t *testing.T) {
	j2 := run(t, guide.BuildOpts{}, 2, tinyArgs)
	j8 := run(t, guide.BuildOpts{}, 8, tinyArgs)
	// Weak scaling: more ranks means a bigger global problem and more
	// communication, so elapsed time must grow with the rank count.
	if !(j8.MainElapsed() > j2.MainElapsed()) {
		t.Fatalf("weak scaling broken: %v at 2 ranks, %v at 8", j2.MainElapsed(), j8.MainElapsed())
	}
}

func TestFullInstrumentationDominatesRun(t *testing.T) {
	none := run(t, guide.BuildOpts{}, 2, tinyArgs).MainElapsed()
	full := run(t, guide.BuildOpts{StaticInstrument: true}, 2, tinyArgs).MainElapsed()
	ratio := float64(full) / float64(none)
	// Smg98's many small functions make Full instrumentation several
	// times slower than None (the paper reports over 7x at 64 CPUs).
	if ratio < 3 {
		t.Fatalf("Full/None = %.2f, want heavy perturbation (>= 3x)", ratio)
	}
}

func TestSubsetConfigKeepsOnlySolverFunctions(t *testing.T) {
	cfgText := "SYMBOL * OFF\n"
	for _, s := range App().Subset {
		cfgText += "SYMBOL " + s + " ON\n"
	}
	j := run(t, guide.BuildOpts{
		StaticInstrument: true,
		Config:           vt.MustParseConfig(cfgText),
	}, 2, tinyArgs)
	sub := make(map[string]bool)
	for _, s := range App().Subset {
		sub[s] = true
	}
	col := j.Collector()
	seen := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind != vt.Enter && e.Kind != vt.Exit {
			continue
		}
		seen++
		if name := col.FuncName(e.Rank, e.ID); !sub[name] {
			t.Fatalf("non-subset function recorded: %s", name)
		}
	}
	if seen == 0 {
		t.Fatal("subset run recorded nothing")
	}
}

func TestDeterministicElapsed(t *testing.T) {
	a := run(t, guide.BuildOpts{StaticInstrument: true}, 4, tinyArgs).MainElapsed()
	b := run(t, guide.BuildOpts{StaticInstrument: true}, 4, tinyArgs).MainElapsed()
	if a != b {
		t.Fatalf("nondeterministic run: %v vs %v", a, b)
	}
}
