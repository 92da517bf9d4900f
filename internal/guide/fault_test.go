package guide

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
)

func runFaultedJob(t *testing.T, bin *Binary, n int, plan *fault.Plan) *Job {
	t.Helper()
	s := des.NewScheduler(21)
	mach := machine.MustNew("ibm-power3", machine.WithFaults(plan))
	j, err := Launch(s, mach, bin, LaunchOpts{Procs: n})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !j.Done() {
		t.Fatal("faulted job did not finish")
	}
	return j
}

// TestCrashedRankJobTerminates: a rank crash mid-run must not hang the
// job — survivors degrade through their barriers and finalize.
func TestCrashedRankJobTerminates(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	j := runFaultedJob(t, bin, 4, &fault.Plan{
		Crashes:       []fault.Crash{{Rank: 1, At: 2 * des.Millisecond}},
		DetectTimeout: 20 * des.Millisecond,
	})
	if !j.World().Dead(1) {
		t.Error("crashed rank not marked dead")
	}
	if e := j.MainElapsed(); e <= 0 {
		t.Errorf("MainElapsed = %v on a degraded but finished job", e)
	}
	var sawCrash, sawDegrade bool
	for _, ev := range j.Faults() {
		switch ev.Kind {
		case fault.KindCrash:
			sawCrash = true
		case fault.KindDegrade:
			sawDegrade = true
		}
	}
	if !sawCrash || !sawDegrade {
		t.Errorf("fault stream missing crash/degrade events: %+v", j.Faults())
	}
}

// TestSlowdownStretchesJob: scaling one node's clock slows the whole
// bulk-synchronous job, and the configuration is visible on the stream.
func TestSlowdownStretchesJob(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	base := runJob(t, bin, 4).MainElapsed()
	slow := runFaultedJob(t, bin, 4, &fault.Plan{
		Slowdowns: []fault.Slowdown{{Node: 0, Factor: 3}},
	})
	if slow.MainElapsed() <= base {
		t.Errorf("slowdown run %v not slower than baseline %v", slow.MainElapsed(), base)
	}
	if evs := slow.Faults(); len(evs) != 1 || evs[0].Kind != fault.KindSlowdown {
		t.Errorf("fault stream = %+v, want one slowdown config event", evs)
	}
}

// TestFaultFreeJobHasNoInjector: zero-plan machines stay on the exact
// pre-fault path.
func TestFaultFreeJobHasNoInjector(t *testing.T) {
	bin, err := Build(toyMPIApp(), BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	j := runJob(t, bin, 2)
	if j.FaultInjector() != nil || len(j.Faults()) != 0 {
		t.Error("fault-free job carries an injector")
	}
}
