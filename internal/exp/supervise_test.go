package exp

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/guide"
)

// healthyTestApp is a minimal MPI application that completes in a handful
// of events.
func healthyTestApp(name string) *guide.App {
	return &guide.App{
		Name:  name,
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: name + "_compute", Size: 20}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			c.Call(c.Fn(name+"_compute"), func() { c.T.Work(200_000) })
			c.MPI.Finalize()
		},
	}
}

// flakyTestApp livelocks on its first execution attempt and runs cleanly
// from the second on, modelling a transient runaway a retry recovers from.
func flakyTestApp(name string) *guide.App {
	var runs atomic.Int32
	return &guide.App{
		Name:  name,
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: name + "_compute", Size: 20}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			if runs.Add(1) == 1 {
				for {
					c.T.Work(1_000)
				}
			}
			c.Call(c.Fn(name+"_compute"), func() { c.T.Work(200_000) })
			c.MPI.Finalize()
		},
	}
}

// panicTestApp panics deterministically inside its rank Proc.
func panicTestApp(name string) *guide.App {
	return &guide.App{
		Name:  name,
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: name + "_compute", Size: 20}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			panic("model invariant violated")
		},
	}
}

// livelockTestApp never finishes: every attempt spins generating events
// until the DES budget trips.
func livelockTestApp(name string) *guide.App {
	return &guide.App{
		Name:  name,
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: name + "_compute", Size: 20}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			for {
				c.T.Work(1_000)
			}
		},
	}
}

// stallTestApp wedges the host (not the simulation): it sleeps host
// wall-clock time inside the rank Proc, so only the CellTimeout watchdog
// can bound it.
func stallTestApp(name string, d time.Duration) *guide.App {
	return &guide.App{
		Name:  name,
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: name + "_compute", Size: 20}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			time.Sleep(d)
			c.Call(c.Fn(name+"_compute"), func() { c.T.Work(200_000) })
			c.MPI.Finalize()
		},
	}
}

// supervisedPlan builds a single-figure plan with one 1-CPU cell per app,
// one series per cell.
func supervisedPlan(apps ...*guide.App) *figurePlan {
	fig := &Figure{ID: "supervised", Title: "supervision test", XLabel: "CPUs", YLabel: "seconds"}
	var cells []planCell
	for i, a := range apps {
		fig.Series = append(fig.Series, Series{Label: a.Name})
		cells = append(cells, planCell{
			series: i,
			cpus:   1,
			spec:   RunSpec{AppDef: a, Policy: None, CPUs: 1, Seed: DefaultSeed},
			value:  func(v cellResult) float64 { return v.(Result).Elapsed.Seconds() },
		})
	}
	return &figurePlan{fig: fig, cells: cells}
}

// runHandPlan assembles one hand-built plan through the Runner's
// scheduling core.
func runHandPlan(r *Runner, plan *figurePlan) (*Figure, error) {
	figs, err := r.runPlans([]*figurePlan{plan})
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// TestSupervisedLivelockRetryDeterminism: a cell that livelocks at attempt
// 1 and succeeds on retry yields byte-identical figure output at
// parallelism 1 and 8, with no failure recorded.
func TestSupervisedLivelockRetryDeterminism(t *testing.T) {
	render := func(parallelism int) (string, Metrics, *Figure) {
		// Fresh apps per run: the flaky app's attempt counter must start
		// at zero for both parallelism levels.
		plan := supervisedPlan(flakyTestApp("flaky"), healthyTestApp("steady"))
		r := NewRunner(Options{
			Parallelism: parallelism,
			Budget:      des.Budget{MaxEvents: 50_000},
			MaxAttempts: 2,
		})
		fig, err := runHandPlan(r, plan)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := fig.Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), r.Metrics(), fig
	}
	seqText, seqM, seqFig := render(1)
	parText, parM, _ := render(8)
	if seqText != parText {
		t.Errorf("retried-livelock figure differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqText, parText)
	}
	if len(seqFig.Failures) != 0 {
		t.Errorf("retried livelock should recover, got failures %+v", seqFig.Failures)
	}
	if seqM.Retries != 1 || parM.Retries != 1 {
		t.Errorf("retries seq=%d par=%d, want 1 each", seqM.Retries, parM.Retries)
	}
	if seqM.Failures != 0 || parM.Failures != 0 {
		t.Errorf("failures seq=%d par=%d, want 0", seqM.Failures, parM.Failures)
	}
	if v, ok := seqFig.At("flaky", 1); !ok || math.IsNaN(v) || v <= 0 {
		t.Errorf("flaky cell value = %v, %v; want a positive point after retry", v, ok)
	}
}

// TestSupervisedPanicFailureDeterminism: a panicking cell fails fast and
// produces the same CellFailure record (and byte-identical rendering) at
// parallelism 1 and 8.
func TestSupervisedPanicFailureDeterminism(t *testing.T) {
	run := func(parallelism int) (*Figure, Metrics, string) {
		plan := supervisedPlan(panicTestApp("explodes"), healthyTestApp("steady"))
		r := NewRunner(Options{Parallelism: parallelism, MaxAttempts: 3})
		fig, err := runHandPlan(r, plan)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := fig.Render(&b); err != nil {
			t.Fatal(err)
		}
		return fig, r.Metrics(), b.String()
	}
	figSeq, mSeq, textSeq := run(1)
	figPar, mPar, textPar := run(8)
	if textSeq != textPar {
		t.Errorf("panicked-cell figure differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", textSeq, textPar)
	}
	if len(figSeq.Failures) != 1 || !reflect.DeepEqual(figSeq.Failures, figPar.Failures) {
		t.Fatalf("failure records differ: seq %+v vs par %+v", figSeq.Failures, figPar.Failures)
	}
	f := figSeq.Failures[0]
	if f.Cause != CausePanic {
		t.Errorf("cause = %q, want %q", f.Cause, CausePanic)
	}
	if f.Attempts != 1 {
		t.Errorf("panic made %d attempts, want fail-fast (1) despite MaxAttempts 3", f.Attempts)
	}
	if !strings.Contains(f.Error, "model invariant violated") {
		t.Errorf("failure error %q does not carry the panic value", f.Error)
	}
	if strings.Contains(f.Error, "goroutine") {
		t.Errorf("failure error carries a stack (nondeterministic): %q", f.Error)
	}
	if mSeq.Failures != 1 || mPar.Failures != 1 {
		t.Errorf("metrics failures seq=%d par=%d, want 1", mSeq.Failures, mPar.Failures)
	}
	if v, ok := figSeq.At("explodes", 1); !ok || !math.IsNaN(v) {
		t.Errorf("panicked cell point = %v, %v; want a NaN hole", v, ok)
	}
	if v, ok := figSeq.At("steady", 1); !ok || math.IsNaN(v) || v <= 0 {
		t.Errorf("healthy cell point = %v, %v; want a real value", v, ok)
	}
}

// TestSupervisedSweepAcceptance: a sweep with one panicking, one
// livelocked and one host-stalled cell completes, reports exactly three
// CellFailures with distinct typed causes, and the healthy cells' values
// are identical to a failure-free run of the same specs.
func TestSupervisedSweepAcceptance(t *testing.T) {
	const watchdog = 300 * time.Millisecond
	plan := supervisedPlan(
		panicTestApp("explodes"),
		livelockTestApp("spins"),
		stallTestApp("stalls", 3*time.Second),
		healthyTestApp("steady"),
		healthyTestApp("steady2"),
	)
	var evs []CellEvent
	r := NewRunner(Options{
		Parallelism: 4,
		// The budget must trip a spinning simulation long before the
		// host watchdog does, so the two causes stay distinct.
		Budget:      des.Budget{MaxEvents: 5_000},
		CellTimeout: watchdog,
		MaxAttempts: 2,
		OnCell:      func(ev CellEvent) { evs = append(evs, ev) },
	})
	fig, err := runHandPlan(r, plan)
	if err != nil {
		t.Fatal(err)
	}

	if len(fig.Failures) != 3 {
		t.Fatalf("got %d failures, want 3: %+v", len(fig.Failures), fig.Failures)
	}
	byCause := map[FailureCause]CellFailure{}
	for _, f := range fig.Failures {
		byCause[f.Cause] = f
	}
	if len(byCause) != 3 {
		t.Fatalf("causes not distinct: %+v", fig.Failures)
	}
	if f := byCause[CausePanic]; f.Series != "explodes" || f.Attempts != 1 {
		t.Errorf("panic failure %+v, want series explodes after 1 attempt", f)
	}
	if f := byCause[CauseLivelock]; f.Series != "spins" || f.Attempts != 2 || !strings.Contains(f.Error, "budget exceeded") {
		t.Errorf("livelock failure %+v, want series spins after 2 attempts with a budget diagnosis", f)
	}
	if f := byCause[CauseTimeout]; f.Series != "stalls" || f.Attempts != 2 || !strings.Contains(f.Error, watchdog.String()) {
		t.Errorf("timeout failure %+v, want series stalls after 2 attempts naming the deadline", f)
	}
	m := r.Metrics()
	if m.Failures != 3 || m.Retries != 2 {
		t.Errorf("metrics failures=%d retries=%d, want 3/2 (livelock and timeout each retried once)", m.Failures, m.Retries)
	}

	// The failed cells stream as Failed events with JSON-safe values.
	var failed int
	for _, ev := range evs {
		if !ev.Failed {
			continue
		}
		failed++
		if ev.Value != 0 || ev.Cause == "" || ev.Error == "" {
			t.Errorf("failed event %+v: want Value 0 (NaN is not JSON) and populated cause/error", ev)
		}
	}
	if failed != 3 {
		t.Errorf("%d failed cell events, want 3", failed)
	}

	// Healthy cells are untouched by their neighbours' failures.
	clean, err := runHandPlan(NewRunner(Options{Parallelism: 2}),
		supervisedPlan(healthyTestApp("steady"), healthyTestApp("steady2")))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"steady", "steady2"} {
		got, ok1 := fig.At(name, 1)
		want, ok2 := clean.At(name, 1)
		if !ok1 || !ok2 || got != want {
			t.Errorf("%s: supervised sweep value %v (ok=%t) != failure-free value %v (ok=%t)", name, got, ok1, want, ok2)
		}
	}
}

// TestFailureClassification: CauseOf and Retryable implement the failure
// taxonomy, including through error wrapping.
func TestFailureClassification(t *testing.T) {
	cases := []struct {
		name  string
		err   error
		cause FailureCause
		retry bool
	}{
		{"livelock", &des.LivelockError{Events: 1}, CauseLivelock, true},
		{"wrapped livelock", fmt.Errorf("cell: %w", &des.LivelockError{}), CauseLivelock, true},
		{"timeout", &CellTimeoutError{Timeout: time.Second}, CauseTimeout, true},
		{"proc panic", &des.ProcPanicError{Proc: "p", Value: "x"}, CausePanic, false},
		{"cell panic", &CellPanicError{Value: "x"}, CausePanic, false},
		{"cell panic wrapping proc panic", &CellPanicError{Value: &des.ProcPanicError{Proc: "p", Value: "x"}}, CausePanic, false},
		{"model error", errors.New("unknown app"), CauseError, false},
	}
	for _, tc := range cases {
		if got := CauseOf(tc.err); got != tc.cause {
			t.Errorf("%s: CauseOf = %q, want %q", tc.name, got, tc.cause)
		}
		if got := Retryable(tc.err); got != tc.retry {
			t.Errorf("%s: Retryable = %t, want %t", tc.name, got, tc.retry)
		}
	}
}

// TestRetryBackoffPolicy: the backoff grows exponentially from
// retryBackoffBase and saturates at the cap; attempt bounds resolve to at
// least one.
func TestRetryBackoffPolicy(t *testing.T) {
	for attempt, want := range map[int]time.Duration{
		1: retryBackoffBase,
		2: 2 * retryBackoffBase,
		3: 4 * retryBackoffBase,
	} {
		if got := retryBackoff(attempt); got != want {
			t.Errorf("backoff(attempt %d) = %v, want %v", attempt, got, want)
		}
	}
	if retryBackoffBase != 10*time.Millisecond {
		t.Errorf("retryBackoffBase = %v, want 10ms", retryBackoffBase)
	}
	if got := retryBackoff(30); got != maxRetryBackoff {
		t.Errorf("backoff(30) = %v, want the %v cap", got, maxRetryBackoff)
	}
	if got := (Options{}).maxAttempts(); got != 1 {
		t.Errorf("zero-option maxAttempts = %d, want 1", got)
	}
	if got := (Options{MaxAttempts: 5}).maxAttempts(); got != 5 {
		t.Errorf("maxAttempts(5) = %d", got)
	}
}
