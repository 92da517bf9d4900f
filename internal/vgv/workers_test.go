package vgv

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// atWorkers runs fn with GOMAXPROCS at n, so that the trace path runs on n
// workers whatever the host's core count.
func atWorkers(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// genTiedTrace builds a collector of 48 Append batches, 300 to 900 events
// each, from six ranks of two threads, on a coarse clock: each of about 240
// time values recurs in many segments, so the merge's rank splitters fall
// inside long runs of ties across segments. With spillAt > 0 it spills to
// dir at that many resident events.
func genTiedTrace(t *testing.T, seed int64, dir string, spillAt int) *vt.Collector {
	rng := rand.New(rand.NewSource(seed))
	const ranks = 6
	col := vt.NewCollector()
	if spillAt > 0 {
		if err := col.SpillTo(filepath.Join(dir, "tied.spill"), spillAt); err != nil {
			t.Fatal(err)
		}
	}
	for r := int32(0); r < ranks; r++ {
		col.AddFuncTable(r, map[int32]string{0: "main", 1: "solve", 2: "halo"})
	}
	for b := 0; b < 48; b++ {
		rank, tid := int32(rng.Intn(ranks)), int32(rng.Intn(2))
		at := des.Time(rng.Intn(20) * 10)
		evs := make([]vt.Event, 300+rng.Intn(600))
		for i := range evs {
			if rng.Intn(4) == 0 {
				at += 10
			}
			evs[i] = vt.Event{At: at, Rank: rank, TID: tid, Kind: vt.Kind(rng.Intn(11)),
				ID: int32(rng.Intn(4)), A: int64(rng.Intn(ranks)), B: int64(rng.Intn(100))}
		}
		col.Append(evs)
	}
	return col
}

// roundTrip is everything the trace path makes of one collector: its
// ordered view and renderings (the trace file among them), and what
// reading that file back gives.
type roundTrip struct {
	ordered                        []vt.Event
	views                          map[string][]byte
	backLen, backBytes             int
	backOrdered                    []vt.Event
	backStats                      vt.CompactStats
	backViews                      map[string][]byte
	fullChunks, chunks, lastLength int
}

func traceRoundTrip(t *testing.T, col *vt.Collector) *roundTrip {
	t.Helper()
	defer col.Release()
	rt := &roundTrip{ordered: col.Ordered().AppendTo(nil), views: renderAll(t, col)}
	chunks := col.Ordered().Chunks()
	for _, ch := range chunks {
		if len(ch) == 4096 {
			rt.fullChunks++
		}
	}
	rt.chunks = len(chunks)
	if len(chunks) > 0 {
		rt.lastLength = len(chunks[len(chunks)-1])
	}
	back := readBack(t, col)
	defer back.Release()
	rt.backLen, rt.backBytes = back.Len(), back.Bytes()
	rt.backOrdered = back.Ordered().AppendTo(nil)
	rt.backStats = back.CompactStats()
	rt.backViews = renderAll(t, back)
	return rt
}

// TestTraceRoundTripAnyWorkers runs the trace path — the merged ordered
// view, WriteTrace, ReadTrace and every VGV view of both collectors — at
// GOMAXPROCS 1, 2, 3 and 4, over generated traces with heavy ties at the
// merge's split points (one of them spilling) and the four kernels'
// traces, and requires every result to be identical. A merged view must
// also be full chunks but its last, so that every trace-file frame is one
// view chunk.
func TestTraceRoundTripAnyWorkers(t *testing.T) {
	type input struct {
		name   string
		merged bool // built from several time-sorted segments
		build  func(t *testing.T) *vt.Collector
	}
	var inputs []input
	for seed := int64(1); seed <= 3; seed++ {
		inputs = append(inputs, input{fmt.Sprintf("tied %d", seed), true, func(t *testing.T) *vt.Collector {
			return genTiedTrace(t, seed, "", 0)
		}})
	}
	inputs = append(inputs, input{"tied, spilling", true, func(t *testing.T) *vt.Collector {
		return genTiedTrace(t, 4, t.TempDir(), 5000)
	}})
	// The kernels on decks a few times the equivalence suite's, so that
	// the MPI kernels' traces span several frames; umt98's fits one.
	for _, k := range []struct {
		app  string
		args map[string]int
	}{
		{"smg98", map[string]int{"nx": 6, "ny": 6, "nz": 8, "iters": 2}},
		{"sppm", map[string]int{"nx": 6, "ny": 6, "nz": 6, "steps": 4}},
		{"sweep3d", map[string]int{"nx": 64, "ny": 4, "nz": 4, "iters": 20}},
		{"umt98", map[string]int{"zones": 64, "angles": 8, "iters": 1}},
	} {
		inputs = append(inputs, input{k.app, k.app != "umt98", func(t *testing.T) *vt.Collector {
			return runKernel(t, k.app, k.args, 4, "")
		}})
	}
	for _, in := range inputs {
		var want *roundTrip
		for _, workers := range []int{1, 2, 3, 4} {
			var got *roundTrip
			atWorkers(workers, func() { got = traceRoundTrip(t, in.build(t)) })
			if in.merged && (got.chunks < 4 || got.fullChunks != got.chunks-1) {
				t.Fatalf("%s, %d workers: %d of %d view chunks full; want all but the last of at least 4",
					in.name, workers, got.fullChunks, got.chunks)
			}
			if workers == 1 {
				want = got
				continue
			}
			if !reflect.DeepEqual(got.ordered, want.ordered) || !reflect.DeepEqual(got.backOrdered, want.backOrdered) {
				t.Fatalf("%s: ordered events differ at %d workers", in.name, workers)
			}
			for name, view := range want.views {
				if string(got.views[name]) != string(view) || string(got.backViews[name]) != string(want.backViews[name]) {
					t.Fatalf("%s: %s differs at %d workers", in.name, name, workers)
				}
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: read-back collector differs at %d workers: %+v, one worker %+v", in.name, workers,
					[]any{got.backLen, got.backBytes, got.backStats}, []any{want.backLen, want.backBytes, want.backStats})
			}
		}
	}
}
