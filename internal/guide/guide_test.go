package guide

import (
	"fmt"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/isa"
	"dynprof/internal/machine"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
	"dynprof/internal/vt"
)

func toyMPIApp() *App {
	return &App{
		Name: "toy",
		Lang: MPIC,
		Funcs: []Func{
			{Name: "toy_compute", Size: 40},
			{Name: "toy_exchange", Size: 20},
			{Name: "toy_setup", Size: 10},
		},
		Subset:      []string{"toy_compute"},
		DefaultArgs: map[string]int{"iters": 4},
		Main: func(c *Ctx) {
			c.MPI.Init()
			c.Call(c.Fn("toy_setup"), func() { c.T.Work(50_000) })
			for i := 0; i < c.Arg("iters", 1); i++ {
				c.Call(c.Fn("toy_compute"), func() { c.T.Work(200_000) })
				c.Call(c.Fn("toy_exchange"), func() { c.MPI.Barrier() })
			}
			c.MPI.Finalize()
		},
	}
}

func toyOMPApp() *App {
	return &App{
		Name:  "toyomp",
		Lang:  OMPF77,
		Funcs: []Func{{Name: "omp_kernel", Size: 30}},
		Main: func(c *Ctx) {
			for i := 0; i < 3; i++ {
				c.OMP.Parallel(c.T, "loop", func(t *proc.Thread, id int) {
					lo, hi := omp.ForStatic(0, 64, id, c.OMP.NumThreads())
					for k := lo; k < hi; k++ {
						t.Work(10_000)
					}
				})
			}
		},
	}
}

func runJob(t *testing.T, bin *Binary, n int) *Job {
	t.Helper()
	s := des.NewScheduler(21)
	j, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not finish")
	}
	return j
}

func TestBuildAddsRuntimeSymbols(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	for _, sym := range []string{"MPI_Init", "MPI_Finalize", "VT_confsync", vt.BreakpointSymbol, "toy_compute"} {
		if _, ok := bin.template.Lookup(sym); !ok {
			t.Errorf("binary lacks symbol %q", sym)
		}
	}
	ompBin, err := Build(toyOMPApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := ompBin.template.Lookup("VT_init"); !ok {
		t.Error("OpenMP binary lacks VT_init")
	}
	if _, ok := ompBin.template.Lookup("MPI_Init"); ok {
		t.Error("OpenMP binary should not carry MPI_Init")
	}
}

func TestBuildRequiresMain(t *testing.T) {
	if _, err := Build(&App{Name: "x", Lang: MPIC}, BuildOpts{}); err == nil {
		t.Fatal("Build accepted an app without main")
	}
}

func TestStaticInstrumentationRecordsEvents(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true, TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 2)
	// Every rank has its own library instance, and all of them record
	// into the job's one collector.
	if j.VT(0) == j.VT(1) || j.VT(0).Rank() != 0 || j.VT(1).Rank() != 1 {
		t.Fatalf("ranks miswired: %p/%d %p/%d", j.VT(0), j.VT(0).Rank(), j.VT(1), j.VT(1).Rank())
	}
	var enters, exits [2]int
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		switch e.Kind {
		case vt.Enter:
			enters[e.Rank]++
		case vt.Exit:
			exits[e.Rank]++
		}
	}
	// Per rank: 1 setup + 4 compute + 4 exchange = 9 enters.
	if enters != [2]int{9, 9} || exits != [2]int{9, 9} {
		t.Fatalf("enters=%v exits=%v per rank, want 9 each", enters, exits)
	}
}

func TestNonePolicyRecordsNothing(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: false})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 2)
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter || e.Kind == vt.Exit {
			t.Fatalf("uninstrumented binary recorded %+v", e)
		}
	}
}

func TestFullOffSlowerThanNoneButSilent(t *testing.T) {
	full, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	offCfg := vt.MustParseConfig("SYMBOL * OFF")
	fullOff, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true, Config: offCfg})
	if err != nil {
		t.Fatal(err)
	}
	none, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: false})
	if err != nil {
		t.Fatal(err)
	}
	args := map[string]int{"iters": 400}
	run := func(bin *Binary) *Job {
		s := des.NewScheduler(21)
		j, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 2, Args: args})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return j
	}
	jFull, jOff, jNone := run(full), run(fullOff), run(none)
	tFull, tOff, tNone := jFull.MainElapsed(), jOff.MainElapsed(), jNone.MainElapsed()
	if !(tFull > tOff && tOff > tNone) {
		t.Fatalf("want Full > Full-Off > None, got %v %v %v", tFull, tOff, tNone)
	}
	// Full-Off must record no subroutine events.
	for _, e := range jOff.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			t.Fatal("Full-Off recorded an Enter event")
		}
	}
	// Full-Off is bounded by the lookup floor, exactly: its only extra
	// instrumentation over None is one compiled-in SnippetCall word per
	// VT_begin/VT_end firing plus the library's table lookup behind it.
	// Every toy function is called after MPI_Init, so each firing reached
	// a ready library and counts one hit.
	for r := 0; r < 2; r++ {
		var floor, calls int64
		for _, pc := range jOff.VT(r).CostSnapshot() {
			floor += pc.FloorCycles()
			calls += pc.Hits * isa.SnippetCall.Cycles()
			if pc.Recorded != 0 || pc.Cycles != pc.FloorCycles() {
				t.Fatalf("rank %d: Full-Off probe %s paid more than its floor: %+v", r, pc.Name, pc)
			}
		}
		off := jOff.Processes()[r].Threads()[0].InstrCycles()
		base := jNone.Processes()[r].Threads()[0].InstrCycles()
		if off-base != floor+calls {
			t.Fatalf("rank %d: Full-Off instr cycles %d - None %d = %d, want floor %d + snippet calls %d",
				r, off, base, off-base, floor, calls)
		}
	}
}

func TestSubsetConfigRecordsOnlySubset(t *testing.T) {
	cfg := vt.MustParseConfig("SYMBOL * OFF\nSYMBOL toy_compute ON")
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true, Config: cfg})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 2)
	var enters [2]int
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter || e.Kind == vt.Exit {
			if name := j.Collector().FuncName(e.Rank, e.ID); name != "toy_compute" {
				t.Fatalf("non-subset function recorded: %s", name)
			}
			if e.Kind == vt.Enter {
				enters[e.Rank]++
			}
		}
	}
	// The linked configuration reaches every rank: each still records
	// its four toy_compute calls.
	if enters != [2]int{4, 4} {
		t.Fatalf("toy_compute enters per rank = %v, want 4 each", enters)
	}
}

func TestHoldAndRelease(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(21)
	j, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 2, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	var releasedAt des.Time
	s.Spawn("instrumenter", func(p *des.Proc) {
		p.Advance(50 * des.Millisecond)
		releasedAt = p.Now()
		j.Release()
		j.WaitAll(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("job did not finish after release")
	}
	if releasedAt != 50*des.Millisecond {
		t.Fatalf("released at %v", releasedAt)
	}
	// Ranks registered on the world only after release, and completed.
	if j.World().Rank(0).MainElapsed() <= 0 {
		t.Fatal("rank 0 did no main work")
	}
}

func TestOMPJobScalesDown(t *testing.T) {
	bin, err := Build(toyOMPApp(), BuildOpts{TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	elapsed := func(threads int) des.Time {
		s := des.NewScheduler(21)
		j, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: threads})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return j.MainElapsed()
	}
	t1, t4 := elapsed(1), elapsed(4)
	if float64(t1)/float64(t4) < 2.5 {
		t.Fatalf("OMP speedup too small: t1=%v t4=%v", t1, t4)
	}
}

func TestOMPJobTracesRegions(t *testing.T) {
	bin, err := Build(toyOMPApp(), BuildOpts{TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 4)
	forks := 0
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.RegionFork {
			forks++
		}
	}
	if forks != 3 {
		t.Fatalf("region forks = %d, want 3", forks)
	}
	// A count-only launch accounts the same trace volume but keeps no
	// events.
	s := des.NewScheduler(21)
	counted, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 4, CountOnly: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if n, b := counted.Collector().Len(), counted.VT(0).TraceBytes(); n != 0 || b != j.VT(0).TraceBytes() || b == 0 {
		t.Fatalf("count-only run kept %d events and %d bytes, want 0 and %d", n, b, j.VT(0).TraceBytes())
	}
}

func TestOMPRefusesTooManyThreads(t *testing.T) {
	bin, err := Build(toyOMPApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(21)
	if _, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 9}); err == nil {
		t.Fatal("9 threads on an 8-way node should fail")
	}
}

func TestLangStrings(t *testing.T) {
	if MPIC.String() != "MPI/C" || MPIF77.String() != "MPI/F77" || OMPF77.String() != "OMP/F77" {
		t.Fatal("Lang strings wrong")
	}
	if !MPIC.IsMPI() || OMPF77.IsMPI() {
		t.Fatal("IsMPI wrong")
	}
}

// TestFuncTableHandles: handles number the table in declaration order,
// Funcs hands out a copy, and a launched process resolves each handle to
// the symbol of its own function.
func TestFuncTableHandles(t *testing.T) {
	var tab FuncTable
	solve, halo := tab.Add("t_solve", 40), tab.Add("t_halo", 12)
	funcs := tab.Funcs()
	if solve != 0 || halo != 1 || len(funcs) != 2 || funcs[halo] != (Func{Name: "t_halo", Size: 12}) {
		t.Fatalf("handles %d, %d over table %v", solve, halo, funcs)
	}
	funcs[0].Name = "clobbered"
	if tab.Funcs()[0].Name != "t_solve" {
		t.Fatal("Funcs shares the table")
	}
	var resolved []string
	app := &App{Name: "tab", Lang: MPIC, Funcs: tab.Funcs(), Main: func(c *Ctx) {
		c.MPI.Init()
		resolved = append(resolved, c.Sym(solve).Name, c.Sym(c.Fn("t_halo")).Name)
		c.MPI.Finalize()
	}}
	bin, err := Build(app, BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(5)
	if _, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 1}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(resolved) != "[t_solve t_halo]" {
		t.Fatalf("resolved %v", resolved)
	}
}

// TestLaunchOneBinaryConcurrently: a Binary is read-only once built, so two
// goroutines may launch and run it at once (run it under -race); each job
// traces what a job of its own binary traces.
func TestLaunchOneBinaryConcurrently(t *testing.T) {
	build := func() *Binary {
		bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true, TraceAPI: true})
		if err != nil {
			t.Fatal(err)
		}
		return bin
	}
	run := func(bin *Binary) ([]vt.Event, error) {
		s := des.NewScheduler(21)
		j, err := Launch(s, machine.MustNew("ibm-power3"), bin, LaunchOpts{Procs: 4})
		if err != nil {
			return nil, err
		}
		if err := s.Run(); err != nil {
			return nil, err
		}
		return j.Collector().Ordered().AppendTo(nil), nil
	}
	want, err := run(build())
	if err != nil {
		t.Fatal(err)
	}
	bin := build()
	var got [2][]vt.Event
	var errs [2]error
	done := make(chan int)
	for g := range got {
		go func() {
			got[g], errs[g] = run(bin)
			done <- g
		}()
	}
	for range got {
		<-done
	}
	for g := range got {
		if errs[g] != nil {
			t.Fatal(errs[g])
		}
		if fmt.Sprint(got[g]) != fmt.Sprint(want) {
			t.Fatalf("job %d of a shared binary traced %d events, own binary %d or different ones", g, len(got[g]), len(want))
		}
	}
}
