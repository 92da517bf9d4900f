package vgv

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// genTrace builds a random collector for the differential tests: every
// Kind, properly nested calls mixed with orphan and mismatched exits,
// frames left open at trace end, unknown function ids (func#N), one name
// under several ids and ranks (including names equal to "(root)" and to a
// func#N fallback), negative A/B, and out-of-order batches.
func genTrace(rng *rand.Rand) *vt.Collector {
	col := vt.NewCollector()
	pool := []string{"main", "solve", "halo", "(root)", "func#6", "solve"}
	ranks := 1 + rng.Intn(4)
	for r := 0; r < ranks; r++ {
		table := make(map[int32]string)
		for id := int32(-1); id < 6; id++ {
			if rng.Intn(3) > 0 {
				table[id] = pool[rng.Intn(len(pool))]
			}
		}
		col.AddFuncTable(int32(r), table)
	}
	type lane struct{ rank, tid int32 }
	stacks := make(map[lane][]int32)
	for batch := rng.Intn(4); batch >= 0; batch-- {
		at := des.Time(rng.Intn(200))
		evs := make([]vt.Event, rng.Intn(120))
		for i := range evs {
			at += des.Time(rng.Intn(5))
			l := lane{int32(rng.Intn(ranks + 1)), int32(rng.Intn(3))}
			e := vt.Event{At: at, Rank: l.rank, TID: l.tid, Kind: vt.Kind(rng.Intn(11)), ID: int32(rng.Intn(9) - 1)}
			switch s := stacks[l]; {
			case (e.Kind == vt.Enter || e.Kind == vt.APIEnter) && rng.Intn(2) == 0:
				stacks[l] = append(s, e.ID)
			case (e.Kind == vt.Exit || e.Kind == vt.APIExit) && len(s) > 0 && rng.Intn(4) > 0:
				// Mostly a matching exit, so calls nest and close.
				e.ID = s[len(s)-1]
				stacks[l] = s[:len(s)-1]
			}
			e.A = int64(rng.Intn(ranks+2) - 1)
			e.B = int64(rng.Intn(1<<20) - 1<<10)
			evs[i] = e
		}
		col.Append(evs)
	}
	return col
}

// renderProfile renders every profile view at two table lengths.
func renderProfile(t *testing.T, p *Profile) []byte {
	t.Helper()
	var buf bytes.Buffer
	for _, n := range []int{0, 3} {
		if err := p.WriteReport(&buf, n); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteCallGraph(&buf, n); err != nil {
			t.Fatal(err)
		}
		if err := p.WriteCommMatrix(&buf, n); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

// checkMatchesReference requires Analyze and RenderTimeline to agree with
// the reference implementations on col.
func checkMatchesReference(t *testing.T, label string, col *vt.Collector) {
	t.Helper()
	got, want := Analyze(col), refAnalyze(col)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: Analyze = %+v\nreference %+v", label, got, want)
	}
	if !bytes.Equal(renderProfile(t, got), renderProfile(t, want)) {
		t.Fatalf("%s: rendered views differ from the reference", label)
	}
	for _, width := range []int{1, 10, 37, 72} {
		var g, w bytes.Buffer
		if err := RenderTimeline(col, &g, width); err != nil {
			t.Fatal(err)
		}
		if err := refRenderTimeline(col, &w, width); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(g.Bytes(), w.Bytes()) {
			t.Fatalf("%s: timeline at width %d:\n%s\nreference:\n%s", label, width, g.Bytes(), w.Bytes())
		}
	}
}

func TestAnalyzeMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 400; i++ {
		col := genTrace(rng)
		checkMatchesReference(t, fmt.Sprintf("trace %d", i), col)
		col.Release()
	}
	empty := vt.NewCollector()
	checkMatchesReference(t, "empty trace", empty)
	empty.Release()
}

func TestAnalyzeMatchesReferenceOnKernels(t *testing.T) {
	for _, k := range equivKernels {
		col := runKernel(t, k.app, k.args, k.procs, nil)
		if col.Len() == 0 {
			t.Fatalf("%s collected no events", k.app)
		}
		checkMatchesReference(t, k.app, col)
		col.Release()
	}
}

// failAfter accepts n bytes, then fails every write, counting the writes
// attempted after the first failure.
type failAfter struct {
	n      int
	failed bool
	after  int
}

var errWriteFailed = errors.New("write failed")

func (w *failAfter) Write(p []byte) (int, error) {
	if w.failed {
		w.after++
	}
	if len(p) > w.n {
		n := w.n
		w.n, w.failed = 0, true
		return n, errWriteFailed
	}
	w.n -= len(p)
	return len(p), nil
}

// TestWritersReportWriteErrors cuts the writer off at every byte offset
// of each view and requires the view to report the failure and to stop
// writing at it.
func TestWritersReportWriteErrors(t *testing.T) {
	col := genTrace(rand.New(rand.NewSource(3)))
	defer col.Release()
	p := Analyze(col)
	views := map[string]func(w *failAfter) error{
		"report":     func(w *failAfter) error { return p.WriteReport(w, 0) },
		"callgraph":  func(w *failAfter) error { return p.WriteCallGraph(w, 0) },
		"commmatrix": func(w *failAfter) error { return p.WriteCommMatrix(w, 0) },
		"timeline":   func(w *failAfter) error { return RenderTimeline(col, w, 40) },
	}
	for name, view := range views {
		counter := &failAfter{n: 1 << 30}
		if err := view(counter); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		size := 1<<30 - counter.n
		if size == 0 {
			t.Fatalf("%s rendered nothing", name)
		}
		for n := 0; n < size; n++ {
			w := &failAfter{n: n}
			if err := view(w); !errors.Is(err, errWriteFailed) {
				t.Fatalf("%s cut off after %d of %d bytes: err = %v", name, n, size, err)
			}
			if w.after > 0 {
				t.Fatalf("%s cut off after %d bytes: %d writes after the failure", name, n, w.after)
			}
		}
	}
}
