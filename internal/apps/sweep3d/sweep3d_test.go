package sweep3d

import (
	"errors"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

func TestFunctionInventoryMatchesPaper(t *testing.T) {
	app := App()
	if got := len(app.Funcs); got != 21 {
		t.Fatalf("Sweep3d has %d functions, the paper says 21", got)
	}
	// "The Dynamic version instruments all 21 of these."
	if got := len(app.Subset); got != 21 {
		t.Fatalf("Sweep3d subset has %d functions, want all 21", got)
	}
	if app.Lang != guide.MPIF77 {
		t.Fatalf("Sweep3d must be MPI/F77 (Table 2), got %v", app.Lang)
	}
}

func run(t *testing.T, opts guide.BuildOpts, procs int, args map[string]int) *guide.Job {
	t.Helper()
	bin, err := guide.Build(App(), opts)
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(41)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: procs, Args: args})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return j
}

var tinyArgs = map[string]int{"nx": 16, "ny": 6, "nz": 6, "iters": 3}

func TestEveryDeclaredFunctionIsCalled(t *testing.T) {
	j := run(t, guide.BuildOpts{StaticInstrument: true}, 2, tinyArgs)
	var missing []string
	for _, f := range App().Funcs {
		called := false
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
		t.Fatalf("functions never called: %v", missing)
	}
}

func TestSingleRankRefused(t *testing.T) {
	bin, err := guide.Build(App(), guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(41)
	if _, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 1, Args: tinyArgs}); err != nil {
		t.Fatal(err)
	}
	var pp *des.ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("single-rank sweep3d should panic (paper: it does not run on 1 CPU): Run returned %v", err)
	}
}

// TestTransportProducesPositiveConvergingFlux drives the solver directly.
func TestTransportProducesPositiveConvergingFlux(t *testing.T) {
	app := App()
	var deltas []float64
	var minPhi, balance float64
	app.Main = func(c *guide.Ctx) {
		c.MPI.Init()
		k := &kernel{c: c, m: c.MPI, rank: c.MPI.Rank(), size: c.MPI.Size()}
		k.gnx, k.ny, k.nz = 16, 6, 6
		k.sigT, k.sigS, k.q = 1.0, 0.5, 1.0
		k.decompGrid()
		k.initGeom()
		k.initAngles()
		k.initSource()
		k.fluxInit()
		for it := 0; it < 5; it++ {
			k.sourceUpdate()
			k.octants()
			d := k.convergenceTest()
			if k.rank == 0 {
				deltas = append(deltas, d)
			}
		}
		b := k.globalBalance()
		if k.rank == 0 {
			balance = b
			minPhi = k.phi[0]
			for _, p := range k.phi {
				if p < minPhi {
					minPhi = p
				}
			}
		}
		c.MPI.Finalize()
	}
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(41)
	if _, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 2}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if minPhi < 0 {
		t.Fatalf("negative scalar flux %v", minPhi)
	}
	if balance <= 0 {
		t.Fatalf("balance = %v, want positive total flux", balance)
	}
	if len(deltas) < 3 {
		t.Fatalf("deltas = %v", deltas)
	}
	// Source iteration must contract (scattering ratio 0.5).
	if !(deltas[len(deltas)-1] < deltas[0]) {
		t.Fatalf("source iteration not contracting: %v", deltas)
	}
}

func TestStrongScaling(t *testing.T) {
	// Fixed global problem: more ranks => less time (Figure 7(c)).
	e2 := run(t, guide.BuildOpts{}, 2, nil).MainElapsed()
	e8 := run(t, guide.BuildOpts{}, 8, nil).MainElapsed()
	if !(e8 < e2) {
		t.Fatalf("strong scaling broken: %v at 2 ranks, %v at 8", e2, e8)
	}
}

func TestInstrumentationOverheadNegligible(t *testing.T) {
	// "The Full and None instrumentation policies of Sweep3d have
	// comparable performance."
	none := run(t, guide.BuildOpts{}, 4, nil).MainElapsed()
	full := run(t, guide.BuildOpts{StaticInstrument: true}, 4, nil).MainElapsed()
	ratio := float64(full) / float64(none)
	if ratio > 1.10 {
		t.Fatalf("Full/None = %.3f, want negligible overhead (<= 1.10)", ratio)
	}
}
