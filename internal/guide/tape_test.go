package guide_test

import (
	"errors"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
)

// runTaped launches app on procs under the None policy's build, recording
// into or replaying from lo's tape.
func runTaped(tb testing.TB, app string, procs int, lo guide.LaunchOpts) error {
	tb.Helper()
	a, err := apps.Get(app)
	if err != nil {
		tb.Fatal(err)
	}
	bin, err := guide.Build(a, none)
	if err != nil {
		tb.Fatal(err)
	}
	s := des.NewScheduler(2003)
	lo.Procs, lo.CountOnly = procs, true
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, lo)
	if err != nil {
		tb.Fatal(err)
	}
	defer j.Collector().Release()
	if err := s.Run(); err != nil {
		return err
	}
	if !j.Done() {
		tb.Fatalf("%s/%d did not finish", app, procs)
	}
	return nil
}

// none is the None policy's build.
var none = guide.BuildOpts{TraceAPI: true}

// record runs app under None and returns its tape.
func record(tb testing.TB, app string, procs int) *tape.Tape {
	tb.Helper()
	tp := new(tape.Tape)
	if err := runTaped(tb, app, procs, guide.LaunchOpts{Tape: tp}); err != nil {
		tb.Fatal(err)
	}
	if err := tp.Err(); err != nil {
		tb.Fatal(err)
	}
	return tp
}

// TestReplayRejectsForeignTape: a tape replays only the application and
// size it was recorded from.
func TestReplayRejectsForeignTape(t *testing.T) {
	tp := record(t, "sppm", 2)
	for _, c := range []struct {
		app   string
		procs int
	}{{"sppm", 4}, {"smg98", 2}} {
		a, _ := apps.Get(c.app)
		bin, err := guide.Build(a, none)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := guide.Launch(des.NewScheduler(1), machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: c.procs, Tape: tp}); err == nil {
			t.Errorf("a 2-rank sppm tape replayed %s on %d ranks", c.app, c.procs)
		}
	}
}

// TestCorruptTapeFailsWithMismatch: a replay whose received messages
// differ in size from the taped ones stops at the receiving rank with a
// *tape.MismatchError instead of simulating a different program.
func TestCorruptTapeFailsWithMismatch(t *testing.T) {
	good := record(t, "sppm", 2)
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
	err := runTaped(t, "sppm", 2, guide.LaunchOpts{Tape: bad})
	var me *tape.MismatchError
	if !errors.As(err, &me) {
		t.Fatalf("corrupt replay: got %v, want a *tape.MismatchError", err)
	}
	if me.Op.Kind != tape.Recv && me.Op.Kind != tape.Wait {
		t.Errorf("mismatch %v, want a receive", me)
	}
}

// TestUnsupportedCallSpoilsTape: an application call outside the tape's
// vocabulary leaves a tape that refuses to drive a replay.
func TestUnsupportedCallSpoilsTape(t *testing.T) {
	app := &guide.App{
		Name:  "bcaster",
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: "step", Size: 10}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			c.Call(0, func() { c.MPI.Bcast(0, 8, 1.0) })
			c.MPI.Finalize()
		},
	}
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(1)
	tp := new(tape.Tape)
	if _, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 2, Tape: tp}); err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if err := tp.Err(); !errors.Is(err, tape.ErrUnreplayable) {
		t.Errorf("tape of an MPI_Bcast run: Err = %v", err)
	}
}

// benchTape runs one smg98/4 None cell per op, live or from a tape.
func benchTape(b *testing.B, replay bool) {
	var lo guide.LaunchOpts
	if replay {
		lo.Tape = record(b, "smg98", 4)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := runTaped(b, "smg98", 4, lo); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkTapeLive runs the smg98/4 None cell live: the kernel's own
// numerics plus the simulated runtime.
func BenchmarkTapeLive(b *testing.B) { benchTape(b, false) }

// BenchmarkTapeReplay runs the same cell from its tape: the simulated
// runtime alone.
func BenchmarkTapeReplay(b *testing.B) { benchTape(b, true) }
