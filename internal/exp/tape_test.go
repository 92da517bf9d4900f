package exp

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
)

// tapeModes are the cells the transparency test records each tuple
// under: the five policies of Table 3, then the adaptive controller at a
// 5% budget on the tuple's own deck.
func tapeModes(tuple RunSpec) []tapedSpec {
	var out []tapedSpec
	for _, p := range []StaticPolicy{None, Full, FullOff, Subset, Dynamic} {
		spec := tuple
		spec.Policy = p
		out = append(out, spec)
	}
	// An empty deck is the kernel's default one, which the tuple runs, not
	// the adapt sweep's.
	return append(out, AdaptSpec{App: tuple.App, Budget: 0.05, CPUs: tuple.CPUs, Args: map[string]int{}, Seed: tuple.Seed})
}

// liveCell is one live cell run while recording its tape.
type liveCell struct {
	spec   tapedSpec
	res    cellResult
	events uint64
	tape   *tape.Tape
}

// tapeTuples are the (kernel, CPUs) tuples recorded under every policy.
func tapeTuples() []RunSpec {
	var out []RunSpec
	for _, app := range apps.Names() {
		cpus := []int{1, 4, 16}
		switch app {
		case "sweep3d":
			cpus = []int{2, 4, 16} // sweep3d needs two ranks
		case "umt98":
			cpus = []int{1, 4, 8} // one 8-CPU SMP node
		}
		for _, n := range cpus {
			out = append(out, RunSpec{App: app, CPUs: n, Seed: DefaultSeed})
		}
	}
	return out
}

// faultTuple is the faults figure's application tuple, run on the
// fault-free machine and under the figure's three fault plans.
func faultTuple() []tapedSpec {
	var out []tapedSpec
	for _, pct := range faultRates {
		m := machine.MustNew("ibm-power3").WithFaultPlan(faultPlanAt(pct))
		out = append(out, RunSpec{App: "smg98", Policy: Full, CPUs: 8, Machine: m, Seed: DefaultSeed})
	}
	return out
}

// countEvents runs f and returns the DES events executed by the cell
// schedulers it ran; f must run its cells on the calling goroutine. Cells
// other tests abandoned to their watchdogs may still be finishing on
// other goroutines, so only this goroutine's schedulers count.
func countEvents(f func()) uint64 {
	var n uint64
	me := goid()
	count := func(s *des.Scheduler) {
		if goid() == me {
			n += s.Executed()
		}
	}
	ranScheduler.Store(&count)
	defer ranScheduler.Store(nil)
	f()
	return n
}

// goid returns the calling goroutine's id, from its stack header
// ("goroutine 7 [running]:").
func goid() string {
	b := make([]byte, 64)
	b = b[:runtime.Stack(b, false)]
	return string(bytes.Fields(b)[1])
}

// tapedCell runs spec recording a fresh tape, or replaying tp.
func tapedCell(spec tapedSpec, tp *tape.Tape) (liveCell, error) {
	if tp == nil {
		tp = new(tape.Tape)
	}
	c := liveCell{spec: spec, tape: tp}
	var err error
	c.events = countEvents(func() { c.res, err = spec.runTaped(des.Budget{}, tp) })
	if err != nil {
		return c, fmt.Errorf("%s: %w", spec.Key(), err)
	}
	return c, nil
}

// runTapedCell is tapedCell failing t on an error.
func runTapedCell(t *testing.T, spec tapedSpec, tp *tape.Tape) liveCell {
	t.Helper()
	c, err := tapedCell(spec, tp)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

var (
	liveOnce  sync.Once
	liveSets  [][]liveCell // per tuple: one live cell per policy (or fault plan)
	liveError error
)

// recordedCells runs every transparency cell live once per test binary,
// recording each cell's tape.
func recordedCells(t *testing.T) [][]liveCell {
	t.Helper()
	if testing.Short() {
		t.Skip("tape transparency sweep skipped in -short mode")
	}
	liveOnce.Do(func() {
		var sets [][]tapedSpec
		for _, tuple := range tapeTuples() {
			sets = append(sets, tapeModes(tuple))
		}
		sets = append(sets, faultTuple())
		liveSets = make([][]liveCell, len(sets))
		for i, set := range sets {
			for _, spec := range set {
				c, err := tapedCell(spec, nil)
				if err == nil && c.tape.Err() != nil {
					err = fmt.Errorf("%s: %w", spec.Key(), c.tape.Err())
				}
				if err != nil {
					liveError = err
					return
				}
				liveSets[i] = append(liveSets[i], c)
			}
		}
	})
	if liveError != nil {
		t.Fatal(liveError)
	}
	return liveSets
}

// TestTapeTransparency is the gate replay rests on: instrumentation must
// not change the application's own behaviour, so a tuple's tape must be
// byte-identical under None, Full, Full-Off, Subset, Dynamic and the
// adaptive controller, for all four kernels at 1, 4 and 16 CPUs (sweep3d
// from 2, umt98 up to its node's 8), and under the faults figure's
// time-moving fault plans.
func TestTapeTransparency(t *testing.T) {
	for _, set := range recordedCells(t) {
		ref := set[0]
		if ref.tape.Size() == 0 {
			t.Errorf("%s: empty tape", ref.spec.Key())
		}
		for _, c := range set[1:] {
			if !c.tape.Equal(ref.tape) {
				t.Errorf("tape of %s differs from %s (%d vs %d bytes)",
					c.spec.Key(), ref.spec.Key(), c.tape.Size(), ref.tape.Size())
			}
		}
	}
}

// TestReplayMatchesLive is the differential test: every cell replayed from
// its tuple's first tape reports exactly the live run's Result — Elapsed,
// CreateAndInstrument, TraceBytes and Faults — and executes exactly as
// many DES events, so event budgets trip identically.
func TestReplayMatchesLive(t *testing.T) {
	for _, set := range recordedCells(t) {
		tp := set[0].tape
		for _, live := range set {
			rep := runTapedCell(t, live.spec, tp)
			if !reflect.DeepEqual(rep.res, live.res) {
				t.Errorf("%s: replay %+v, live %+v", live.spec.Key(), rep.res, live.res)
			}
			if rep.events != live.events {
				t.Errorf("%s: replay executed %d events, live %d", live.spec.Key(), rep.events, live.events)
			}
		}
	}
}

// TestCorruptTapeFailsCell: a tape whose message sizes were altered fails
// the replayed cell at the receiving rank with a *tape.MismatchError,
// through the Runner's supervised path like any other cell.
func TestCorruptTapeFailsCell(t *testing.T) {
	spec := RunSpec{App: "sppm", Policy: Dynamic, CPUs: 2, Seed: DefaultSeed}
	good := runTapedCell(t, spec, nil).tape
	bad := new(tape.Tape)
	if err := bad.Start(good.App(), good.Len(), nil); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < good.Len(); i++ {
		rd := good.Reader(i)
		for op := rd.Next(); op.Kind != tape.EOF; op = rd.Next() {
			if op.Kind == tape.Send {
				op.C++
			}
			bad.Track(i).Append(op)
		}
	}
	_, err, _ := superviseCell(func(bud des.Budget) (cellResult, error) {
		return spec.runTaped(bud, bad)
	}, Options{})
	var me *tape.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("corrupt replay: got %v, want a *tape.MismatchError", err)
	}
	if me.Track != 1 || (me.Op.Kind != tape.Recv && me.Op.Kind != tape.Wait) {
		t.Errorf("mismatch %v, want rank 1's receive", me)
	}
	if CauseOf(err) != CausePanic || Retryable(err) {
		t.Errorf("mismatch classified %s (retryable %t), want a non-retryable panic", CauseOf(err), Retryable(err))
	}
}

// TestTapeKeyEligibility: which cells share a tape, and which run live.
func TestTapeKeyEligibility(t *testing.T) {
	base := RunSpec{App: "smg98", Policy: Full, CPUs: 8, Seed: DefaultSeed}
	key := base.tapeKey()
	if key == "" {
		t.Fatal("a Full smg98 cell has no tape key")
	}
	for _, p := range []StaticPolicy{None, FullOff, Subset, Dynamic} {
		s := base
		s.Policy = p
		if got := s.tapeKey(); got != key {
			t.Errorf("%s cell: tape key %q, want %q", p.Key(), got, key)
		}
	}
	slow := base
	slow.Machine = machine.MustNew("ibm-power3").WithFaultPlan(faultPlanAt(20))
	if got := slow.tapeKey(); got != key {
		t.Errorf("time-only fault plan: tape key %q, want %q", got, key)
	}
	adapt := AdaptSpec{App: "smg98", CPUs: 8, Args: map[string]int{}, Seed: DefaultSeed}
	if got := adapt.tapeKey(); got != key {
		t.Errorf("adapt cell: tape key %q, want %q", got, key)
	}
	crash := base
	crash.Machine = machine.MustNew("ibm-power3").WithFaultPlan(&fault.Plan{Crashes: []fault.Crash{{Rank: 1, At: des.Millisecond}}})
	custom := base
	custom.AppDef = &guide.App{Name: "custom"}
	for name, s := range map[string]RunSpec{"crash plan": crash, "custom app": custom, "unknown policy": {App: "smg98", Policy: StaticPolicy("Bogus"), CPUs: 8}} {
		if got := s.tapeKey(); got != "" {
			t.Errorf("%s: tape key %q, want live", name, got)
		}
	}
}

// TestRunnerReplaysTupleGroups: a Figure 7 panel runs each tuple's first
// cell live and replays the rest, reports every replay in Metrics and on
// the cell stream, and renders the same figure as live runs.
func TestRunnerReplaysTupleGroups(t *testing.T) {
	var evs []CellEvent
	r := NewRunner(Options{MaxCPUs: 4, Parallelism: 2, OnCell: func(ev CellEvent) { evs = append(evs, ev) }})
	fig, err := r.Figure("fig7b")
	if err != nil {
		t.Fatal(err)
	}
	// 3 tuples (1, 2, 4 CPUs) × 5 policies: 3 recordings, 12 replays.
	if m := r.Metrics(); m.Runs != 15 || m.Replays != 12 {
		t.Errorf("runs=%d replays=%d, want 15/12", m.Runs, m.Replays)
	}
	replayed := 0
	for _, ev := range evs {
		if ev.Replayed {
			replayed++
		}
		if ev.CacheHit && ev.Replayed {
			t.Errorf("cache hit %s marked replayed", ev.Key)
		}
	}
	if replayed != 12 {
		t.Errorf("%d cell events marked replayed, want 12", replayed)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			res, err := Run(RunSpec{App: "sppm", Policy: StaticPolicy(s.Label), CPUs: p.CPUs, Seed: DefaultSeed})
			if err != nil {
				t.Fatal(err)
			}
			if p.Value != res.Elapsed.Seconds() {
				t.Errorf("%s/%d: figure %v, live %v", s.Label, p.CPUs, p.Value, res.Elapsed.Seconds())
			}
		}
	}
}

// TestFailedRecordingLeavesNextCellToRecord: a recording cell that trips
// its event budget publishes no tape; the group's next cell records
// instead and the rest replay it.
func TestFailedRecordingLeavesNextCellToRecord(t *testing.T) {
	spec := func(p StaticPolicy) RunSpec { return RunSpec{App: "sppm", Policy: p, CPUs: 2, Seed: DefaultSeed} }
	full := runTapedCell(t, spec(Full), nil)
	var most uint64
	for _, p := range []StaticPolicy{None, Subset} {
		most = max(most, runTapedCell(t, spec(p), nil).events)
	}
	if most >= full.events {
		t.Skipf("Full executes %d events, no more than None/Subset's %d", full.events, most)
	}
	r := NewRunner(Options{Budget: des.Budget{MaxEvents: most}})
	var done int
	r.runGroup(cellGroup{cells: []cellSpec{spec(Full), spec(None), spec(Subset)}}, func(error) { done++ })
	m := r.Metrics()
	if done != 3 || m.Runs != 3 || m.Failures != 1 || m.Replays != 1 {
		t.Errorf("done=%d runs=%d failures=%d replays=%d, want 3/3/1/1", done, m.Runs, m.Failures, m.Replays)
	}
	if e := r.cache[spec(Subset).Key()]; e == nil || !e.replayed || e.err != nil {
		t.Errorf("Subset cell %+v: want a successful replay", e)
	}
}
