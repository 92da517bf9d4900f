package vgv

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// benchTrace is BenchmarkAnalyze's input, shaped like the vt trace-path
// benchmarks: 16 ranks of 16384 events, 64 frames' worth. Per rank, main
// encloses a loop of solve → halo → send; each rank's timeline is handed
// over in 16 flush batches, and the ranks' timelines interleave.
func benchTrace() *vt.Collector {
	const ranks, batches, perRank = 16, 16, 16384
	col := vt.NewCollector()
	timelines := make([][]vt.Event, ranks)
	for r := int32(0); r < ranks; r++ {
		col.AddFuncTable(r, map[int32]string{0: "main", 1: "solve", 2: "halo"})
		evs := make([]vt.Event, 0, perRank)
		at := des.Time(r)
		add := func(k vt.Kind, id int32, a, b int64) {
			evs = append(evs, vt.Event{At: at, Rank: r, Kind: k, ID: id, A: a, B: b})
			at += 8
		}
		add(vt.Enter, 0, 0, 0)
		for len(evs) < perRank-5 {
			add(vt.Enter, 1, 0, 0)
			add(vt.Enter, 2, 0, 0)
			add(vt.MsgSend, 0, int64((r+1)%ranks), 4096)
			add(vt.Exit, 2, 0, 0)
			add(vt.Exit, 1, 0, 0)
		}
		add(vt.Exit, 0, 0, 0)
		timelines[r] = evs
	}
	for b := 0; b < batches; b++ {
		for _, evs := range timelines {
			col.Append(evs[b*len(evs)/batches : (b+1)*len(evs)/batches])
		}
	}
	return col
}

// profileSink keeps the benchmarked result live.
var profileSink *Profile

// BenchmarkAnalyze measures the profile pass over a merged trace (the
// merged view is built once, before timing).
func BenchmarkAnalyze(b *testing.B) {
	b.ReportAllocs()
	col := benchTrace()
	col.Ordered().AppendTo(nil)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = Analyze(col)
	}
}
