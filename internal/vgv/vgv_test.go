package vgv

import (
	"bytes"
	"strings"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// mkTrace builds a synthetic trace.
func mkTrace(events []vt.Event, names map[int32]string) *vt.Collector {
	col := vt.NewCollector()
	col.AddFuncTable(0, names)
	col.Append(events)
	return col
}

func TestInclusiveExclusiveNesting(t *testing.T) {
	// outer [0,100ms] contains inner [20,60ms].
	names := map[int32]string{0: "outer", 1: "inner"}
	ms := func(v int) des.Time { return des.Time(v) * des.Millisecond }
	col := mkTrace([]vt.Event{
		{At: ms(0), Kind: vt.Enter, ID: 0},
		{At: ms(20), Kind: vt.Enter, ID: 1},
		{At: ms(60), Kind: vt.Exit, ID: 1},
		{At: ms(100), Kind: vt.Exit, ID: 0},
	}, names)
	p := Analyze(col)
	outer, ok := p.Lookup("outer")
	if !ok {
		t.Fatal("outer missing")
	}
	if outer.Inclusive != ms(100) || outer.Exclusive != ms(60) || outer.Calls != 1 {
		t.Fatalf("outer = %+v", outer)
	}
	inner, _ := p.Lookup("inner")
	if inner.Inclusive != ms(40) || inner.Exclusive != ms(40) {
		t.Fatalf("inner = %+v", inner)
	}
	if p.Unbalanced != 0 {
		t.Fatalf("unbalanced = %d", p.Unbalanced)
	}
}

func TestRecursionAndRepeatedCalls(t *testing.T) {
	names := map[int32]string{0: "f"}
	us := func(v int) des.Time { return des.Time(v) * des.Microsecond }
	col := mkTrace([]vt.Event{
		{At: us(0), Kind: vt.Enter, ID: 0},
		{At: us(10), Kind: vt.Enter, ID: 0}, // recursive
		{At: us(20), Kind: vt.Exit, ID: 0},
		{At: us(30), Kind: vt.Exit, ID: 0},
		{At: us(40), Kind: vt.Enter, ID: 0},
		{At: us(50), Kind: vt.Exit, ID: 0},
	}, names)
	p := Analyze(col)
	f, _ := p.Lookup("f")
	if f.Calls != 3 {
		t.Fatalf("calls = %d", f.Calls)
	}
	// Inclusive: 30 (outer) + 10 (recursive) + 10 (second) = 50us.
	if f.Inclusive != us(50) {
		t.Fatalf("inclusive = %v", f.Inclusive)
	}
	// Exclusive: outer 30-10=20, inner 10, second 10 = 40us.
	if f.Exclusive != us(40) {
		t.Fatalf("exclusive = %v", f.Exclusive)
	}
}

func TestOrphanEventsTolerated(t *testing.T) {
	// An exit without an enter (probe inserted mid-call) and an enter
	// without an exit (probe removed / program end inside the call).
	names := map[int32]string{0: "a", 1: "b"}
	col := mkTrace([]vt.Event{
		{At: 10, Kind: vt.Exit, ID: 0},
		{At: 20, Kind: vt.Enter, ID: 1},
	}, names)
	p := Analyze(col)
	if p.Unbalanced != 2 {
		t.Fatalf("unbalanced = %d, want 2", p.Unbalanced)
	}
	if b, ok := p.Lookup("b"); !ok || b.Calls != 1 {
		t.Fatalf("b closed at trace end expected, got %+v", b)
	}
}

func TestMessageStats(t *testing.T) {
	col := mkTrace([]vt.Event{
		{At: 1, Kind: vt.MsgSend, A: 1, B: 4096},
		{At: 2, Kind: vt.MsgSend, A: 1, B: 1024},
		{At: 3, Kind: vt.MsgRecv, A: 0, B: 4096},
	}, map[int32]string{})
	p := Analyze(col)
	if p.Msgs.Sends != 2 || p.Msgs.Recvs != 1 || p.Msgs.Bytes != 5120 {
		t.Fatalf("msgs = %+v", p.Msgs)
	}
}

func TestLanesSeparated(t *testing.T) {
	names := map[int32]string{0: "f"}
	col := vt.NewCollector()
	col.AddFuncTable(0, names)
	col.AddFuncTable(1, names)
	col.Append([]vt.Event{
		{At: 0, Rank: 0, Kind: vt.Enter, ID: 0},
		{At: 5, Rank: 1, Kind: vt.Enter, ID: 0},
		{At: 10, Rank: 0, Kind: vt.Exit, ID: 0},
		{At: 15, Rank: 1, Kind: vt.Exit, ID: 0},
	})
	p := Analyze(col)
	if p.Ranks != 2 || p.Threads != 2 {
		t.Fatalf("ranks=%d threads=%d", p.Ranks, p.Threads)
	}
	f, _ := p.Lookup("f")
	if f.Calls != 2 || f.Inclusive != 20 {
		t.Fatalf("f = %+v", f)
	}
}

func TestTimelineShowsWiggleForRegions(t *testing.T) {
	col := mkTrace([]vt.Event{
		{At: 0, Kind: vt.Enter, ID: 0},
		{At: 100, Kind: vt.RegionEnter, ID: 1},
		{At: 200, Kind: vt.RegionExit, ID: 1},
		{At: 300, Kind: vt.Exit, ID: 0},
	}, map[int32]string{0: "main", 1: "$omp$loop"})
	var buf bytes.Buffer
	if err := RenderTimeline(col, &buf, 30); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	if !strings.ContainsRune(out, glyphRegion) {
		t.Fatalf("time-line lacks the region wiggle:\n%s", out)
	}
	if !strings.ContainsRune(out, glyphFunc) {
		t.Fatalf("time-line lacks function bars:\n%s", out)
	}
	if !strings.Contains(out, "r00/t00") {
		t.Fatalf("time-line lacks lane labels:\n%s", out)
	}
}

// TestTimelineHugeSpans draws traces whose span times the width, or whose
// span itself, passes 2⁶³: the columns must be the exact ones, as in a
// trace of small times.
func TestTimelineHugeSpans(t *testing.T) {
	const t61, t62 = des.Time(1) << 61, des.Time(1) << 62
	cases := []struct {
		name   string
		at     [4]des.Time // one call, then an instant call at the end
		row    string
		column string // the span per column
	}{
		// Columns 0–9 and 19; the int64 product wrapped to column 0 alone.
		{"product past 2^63", [4]des.Time{0, t61 - 1, t62, t62}, "##########.........#", "230584300.921s"},
		// A span of 2⁶³: end-start itself wrapped.
		{"span of 2^63", [4]des.Time{-t62, 0, t62, t62}, "###########........#", "461168601.843s"},
	}
	for _, c := range cases {
		col := mkTrace([]vt.Event{
			{At: c.at[0], Kind: vt.Enter}, {At: c.at[1], Kind: vt.Exit},
			{At: c.at[2], Kind: vt.Enter}, {At: c.at[3], Kind: vt.Exit},
		}, map[int32]string{0: "f"})
		var buf bytes.Buffer
		if err := RenderTimeline(col, &buf, 20); err != nil {
			t.Fatal(err)
		}
		if want := "r00/t00 |" + c.row + "|"; !strings.Contains(buf.String(), want) {
			t.Errorf("%s: time-line\n%s\nwant row %s", c.name, buf.String(), want)
		}
		if !strings.Contains(buf.String(), "(20 columns, "+c.column+"/column)") {
			t.Errorf("%s: time-line\n%s\nwant %s per column", c.name, buf.String(), c.column)
		}
		checkMatchesReference(t, c.name, col)
		col.Release()
	}
}

func TestTimelineEmptyTrace(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTimeline(vt.NewCollector(), &buf, 40); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "empty") {
		t.Fatal("empty trace not reported")
	}
}

// TestSweep3dTimelineIntegration reproduces the Figure 4 scenario in
// miniature: a traced sweep3d run rendered as a time-line and profiled.
func TestSweep3dTimelineIntegration(t *testing.T) {
	app, err := apps.Get("sweep3d")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true, TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(53)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs: 4,
		Args:  map[string]int{"nx": 16, "ny": 4, "nz": 4, "iters": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	p := Analyze(j.Collector())
	if p.Ranks != 4 {
		t.Fatalf("ranks = %d", p.Ranks)
	}
	sweep, ok := p.Lookup("sweep_SweepBlock")
	if !ok || sweep.Calls == 0 {
		t.Fatal("sweep_SweepBlock missing from profile")
	}
	main, _ := p.Lookup("sweep_Main")
	if main.Inclusive < sweep.Inclusive/4 {
		t.Fatalf("sweep_Main inclusive %v implausibly small vs %v", main.Inclusive, sweep.Inclusive)
	}
	if p.Msgs.Sends == 0 || p.Msgs.Recvs == 0 {
		t.Fatal("no message events in a pipelined sweep")
	}
	var buf bytes.Buffer
	if err := RenderTimeline(j.Collector(), &buf, 72); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"r00/t00", "r03/t00", "legend"} {
		if !strings.Contains(buf.String(), want) {
			t.Fatalf("time-line missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := p.WriteReport(&buf, 10); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "sweep_") {
		t.Fatalf("report missing functions:\n%s", buf.String())
	}
}

// TestUmt98RegionWiggleIntegration checks the OpenMP wiggle end to end.
func TestUmt98RegionWiggleIntegration(t *testing.T) {
	app, err := apps.Get("umt98")
	if err != nil {
		t.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true, TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(53)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs: 4,
		Args:  map[string]int{"zones": 64, "angles": 8, "iters": 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := RenderTimeline(j.Collector(), &buf, 64); err != nil {
		t.Fatal(err)
	}
	if !strings.ContainsRune(buf.String(), glyphRegion) {
		t.Fatalf("umt98 time-line lacks the parallel-region wiggle:\n%s", buf.String())
	}
}
