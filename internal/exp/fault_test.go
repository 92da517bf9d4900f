package exp

import (
	"strings"
	"sync"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
)

// TestFaultKeysDistinguishCells: a machine carrying a fault plan changes
// every spec key, and a zero plan leaves keys (and so the memo cache)
// byte-identical to fault-free specs.
func TestFaultKeysDistinguishCells(t *testing.T) {
	faulted := machine.MustNew("ibm-power3").WithFaultPlan(&fault.Plan{CtrlDelayFactor: 2})
	zeroed := machine.MustNew("ibm-power3").WithFaultPlan(&fault.Plan{})

	run := RunSpec{App: "umt98", Policy: None, CPUs: 2, Seed: 1}
	runF, runZ := run, run
	runF.Machine, runZ.Machine = faulted, zeroed
	cs := ConfSyncSpec{CPUs: 4, Seed: 1}
	csF := cs
	csF.Machine = faulted
	hy := HybridSpec{CPUs: 2, Seed: 1}
	hyF := hy
	hyF.Machine = faulted

	for _, c := range []struct {
		name       string
		base, with string
	}{
		{"run", run.Key(), runF.Key()},
		{"confsync", cs.Key(), csF.Key()},
		{"hybrid", hy.Key(), hyF.Key()},
	} {
		if c.base == c.with {
			t.Errorf("%s: faulted key %q equals fault-free key", c.name, c.with)
		}
		if !strings.Contains(c.with, "faults{") {
			t.Errorf("%s: faulted key %q lacks the plan component", c.name, c.with)
		}
	}
	if runZ.Key() != run.Key() {
		t.Errorf("zero plan perturbs the key: %q vs %q", runZ.Key(), run.Key())
	}
	// Distinct plans get distinct keys.
	other := run
	other.Machine = machine.MustNew("ibm-power3").WithFaultPlan(&fault.Plan{CtrlDelayFactor: 3})
	if other.Key() == runF.Key() {
		t.Error("different plans share a spec key")
	}
}

// TestFaultSweepDeterminism: the fault figure is byte-identical at
// Parallelism 1 and 8 — same seed and plan, same figures.
func TestFaultSweepDeterminism(t *testing.T) {
	seqText, seqCSV, _ := renderAll(t, Options{Parallelism: 1}, "faults")
	parText, parCSV, _ := renderAll(t, Options{Parallelism: 8}, "faults")
	if seqText != parText || seqCSV != parCSV {
		t.Errorf("fault figure differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqText, parText)
	}
	if !strings.Contains(seqText, "smg98-full-8cpu") || !strings.Contains(seqText, "confsync-32") {
		t.Errorf("fault figure missing series:\n%s", seqText)
	}
}

// TestFaultSweepDegradesMonotonically: higher fault intensity means a
// slower instrumented run, and the faulted cells (only) carry fault
// events on the JSONL stream.
func TestFaultSweepDegradesMonotonically(t *testing.T) {
	var mu sync.Mutex
	var evs []CellEvent
	r := NewRunner(Options{OnCell: func(ev CellEvent) { mu.Lock(); evs = append(evs, ev); mu.Unlock() }})
	fig, err := r.Figure("faults")
	if err != nil {
		t.Fatal(err)
	}
	base, ok1 := fig.At("smg98-full-8cpu", 0)
	worst, ok2 := fig.At("smg98-full-8cpu", 40)
	if !ok1 || !ok2 || worst <= base {
		t.Errorf("app time at 40%% intensity (%v) not above fault-free (%v)", worst, base)
	}
	csBase, _ := fig.At("confsync-32", 0)
	csWorst, ok := fig.At("confsync-32", 40)
	if !ok || csWorst <= csBase {
		t.Errorf("confsync cost at 40%% intensity (%v) not above fault-free (%v)", csWorst, csBase)
	}
	for _, ev := range evs {
		faulty := strings.Contains(ev.Key, "faults{")
		if faulty && len(ev.Faults) == 0 {
			t.Errorf("faulted cell %q emitted no fault events", ev.Key)
		}
		if !faulty && len(ev.Faults) != 0 {
			t.Errorf("fault-free cell %q emitted fault events %+v", ev.Key, ev.Faults)
		}
	}
}

// TestCrashedRankConfSyncTerminates is the acceptance check for graceful
// degradation: a ConfSync cell on a machine whose plan crashes a rank
// must terminate through the detection timeout rather than hang the DES.
func TestCrashedRankConfSyncTerminates(t *testing.T) {
	plan := &fault.Plan{
		Crashes:       []fault.Crash{{Rank: 2, At: 3 * des.Millisecond}},
		DetectTimeout: 10 * des.Millisecond,
	}
	res, err := RunConfSync(ConfSyncSpec{
		Machine: machine.MustNew("ibm-power3").WithFaultPlan(plan),
		CPUs:    8,
		Seed:    5,
	})
	if err != nil {
		t.Fatalf("crashed-rank confsync run failed: %v", err)
	}
	if res.Mean <= 0 {
		t.Errorf("degraded confsync mean = %v, want positive", res.Mean)
	}
	var sawCrash, sawDegrade bool
	for _, ev := range res.Faults {
		switch ev.Kind {
		case fault.KindCrash:
			sawCrash = true
		case fault.KindDegrade:
			sawDegrade = true
		}
	}
	if !sawCrash || !sawDegrade {
		t.Errorf("fault stream lacks crash/degrade evidence: %+v", res.Faults)
	}
}

// TestFaultSmoke runs one cell with the data-path fault classes enabled at
// once — slow node, stall, lossy+slow control channel and a mid-run rank
// crash — end to end through the Dynamic policy (daemons, retry path,
// instrumentation, degradation). Guarded by -short so quick edit loops
// stay fast; verify.sh runs it explicitly.
func TestFaultSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("fault smoke is not a -short test")
	}
	plan := &fault.Plan{
		Slowdowns:       []fault.Slowdown{{Node: 0, Factor: 1.3}},
		Stalls:          []fault.Stall{{Node: 1, At: 5 * des.Millisecond, Duration: 10 * des.Millisecond}},
		Crashes:         []fault.Crash{{Rank: 3, At: 50 * des.Millisecond}},
		CtrlLossProb:    0.1,
		CtrlDelayFactor: 2,
		DetectTimeout:   30 * des.Millisecond,
	}
	res, err := Run(RunSpec{
		App:     "smg98",
		Policy:  Dynamic,
		CPUs:    4,
		Machine: machine.MustNew("ibm-power3", machine.WithFaults(plan)),
		Seed:    7,
	})
	if err != nil {
		t.Fatalf("fully-faulted dynamic run must terminate, got %v", err)
	}
	if res.Elapsed <= 0 {
		t.Fatalf("elapsed = %v, want > 0", res.Elapsed)
	}
	kinds := map[fault.Kind]bool{}
	for _, ev := range res.Faults {
		kinds[ev.Kind] = true
	}
	for _, k := range []fault.Kind{fault.KindSlowdown, fault.KindStall, fault.KindCrash, fault.KindDegrade} {
		if !kinds[k] {
			t.Errorf("fault stream missing %s events: have %v", k, kinds)
		}
	}
}
