package core

import (
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// skewedApp spends nearly all of its time in one function.
func skewedApp() *guide.App {
	return &guide.App{
		Name: "skewed",
		Lang: guide.MPIC,
		Funcs: []guide.Func{
			{Name: "hot_kernel", Size: 60},
			{Name: "cold_setup", Size: 20},
			{Name: "cold_logging", Size: 10},
		},
		DefaultArgs: map[string]int{"iters": 8000},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			c.Call(c.Fn("cold_setup"), func() { c.T.Work(10_000) })
			for i := 0; i < c.Arg("iters", 100); i++ {
				c.Call(c.Fn("hot_kernel"), func() { c.T.Work(400_000) })
				c.Call(c.Fn("cold_logging"), func() { c.T.Work(2_000) })
			}
			c.MPI.Finalize()
		},
	}
}

func TestSamplingFindsHotFunction(t *testing.T) {
	s := des.NewScheduler(17)
	var hot []string
	var samples int64
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, err := NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     skewedApp(),
			Procs:   2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		ss.Start(p)
		sp := ss.Sample(p, des.Millisecond, 500*des.Millisecond)
		samples = sp.Samples
		hot = sp.Top(1)
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if samples == 0 {
		t.Fatal("sampler took no samples")
	}
	if len(hot) != 1 || hot[0] != "hot_kernel" {
		t.Fatalf("sampling ranked %v as hottest, want hot_kernel", hot)
	}
}

func TestEphemeralProfileSnapshotsHotRegion(t *testing.T) {
	s := des.NewScheduler(17)
	var monitored []string
	var ss *Session
	s.Spawn("dynprof", func(p *des.Proc) {
		var err error
		ss, err = NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     skewedApp(),
			Procs:   2,
		})
		if err != nil {
			t.Error(err)
			return
		}
		ss.Start(p)
		monitored, err = ss.EphemeralProfile(p,
			des.Millisecond, 300*des.Millisecond, 800*des.Millisecond, 1)
		if err != nil {
			t.Error(err)
			return
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(monitored) != 1 || monitored[0] != "hot_kernel" {
		t.Fatalf("ephemeral profiling monitored %v", monitored)
	}
	// The snapshot recorded hot_kernel only, over a bounded window, and
	// left the image pristine.
	col := ss.Job().Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind != vt.Enter {
			continue
		}
		if name := col.FuncName(e.Rank, e.ID); name != "hot_kernel" {
			t.Fatalf("non-hot function recorded: %s", name)
		}
		enters++
	}
	if enters == 0 {
		t.Fatal("detailed snapshot recorded nothing")
	}
	if enters >= 2*8000 {
		t.Fatalf("snapshot covered the whole run (%d enters); should be a window", enters)
	}
	if len(ss.Instrumented()) != 0 {
		t.Fatalf("probes left behind: %v", ss.Instrumented())
	}
}

func TestSampleProfileSkipsRuntimeSymbols(t *testing.T) {
	sp := &SampleProfile{Counts: map[string]int64{
		"":                    50,
		"MPI_Barrier":         40,
		"VT_confsync":         30,
		"configuration_break": 20,
		"app_fn":              10,
	}}
	top := sp.Top(3)
	if len(top) != 1 || top[0] != "app_fn" {
		t.Fatalf("Top = %v, want only app_fn", top)
	}
}

func TestAttachToRunningJob(t *testing.T) {
	s := des.NewScheduler(23)
	app := skewedApp()
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs: 2,
		Args:  map[string]int{"iters": 6000},
	})
	if err != nil {
		t.Fatal(err)
	}
	var attached *Session
	s.Spawn("late-tool", func(p *des.Proc) {
		// Let the target get well into its main computation first.
		p.Advance(200 * des.Millisecond)
		var err error
		attached, err = AttachSessionWith(p, machine.MustNew("ibm-power3"), job, AttachConfig{})
		if err != nil {
			t.Error(err)
			return
		}
		if err := attached.Insert(p, "hot_kernel"); err != nil {
			t.Error(err)
			return
		}
		p.Advance(500 * des.Millisecond)
		attached.Detach(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if attached == nil {
		t.Fatal("never attached")
	}
	col := job.Collector()
	enters := 0
	for _, e := range col.Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters++
		}
	}
	if enters == 0 {
		t.Fatal("attached session recorded nothing")
	}
	if enters >= 2*6000 {
		t.Fatalf("attached mid-run but recorded the full run (%d)", enters)
	}
}

func TestAttachBeforeStartRefused(t *testing.T) {
	s := des.NewScheduler(23)
	bin, err := guide.Build(skewedApp(), guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	job, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 2, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	s.Spawn("tool", func(p *des.Proc) {
		if _, err := AttachSessionWith(p, machine.MustNew("ibm-power3"), job, AttachConfig{}); err == nil {
			t.Error("attach to a never-started job succeeded")
		}
		job.Release()
		job.WaitAll(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEphemeralNeedsStartedTarget(t *testing.T) {
	s := des.NewScheduler(17)
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, err := NewSession(p, Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     skewedApp(),
			Procs:   2,
			Args:    map[string]int{"iters": 5},
		})
		if err != nil {
			t.Error(err)
			return
		}
		if _, err := ss.EphemeralProfile(p, des.Millisecond, des.Millisecond, des.Millisecond, 1); err == nil {
			t.Error("ephemeral profiling before start succeeded")
		} else if !strings.Contains(err.Error(), "started") {
			t.Errorf("unexpected error: %v", err)
		}
		ss.Quit(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}
