package vgv

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// benchTrace is BenchmarkAnalyze's input, shaped like the vt dump
// benchmarks: 8 ranks of about 2048 events. Per rank, main encloses a
// loop of solve → halo → send, and the ranks' timelines interleave.
func benchTrace() *vt.Collector {
	col := vt.NewCollector()
	for r := int32(0); r < 8; r++ {
		col.AddFuncTable(r, map[int32]string{0: "main", 1: "solve", 2: "halo"})
		evs := make([]vt.Event, 0, 2048)
		at := des.Time(r)
		add := func(k vt.Kind, id int32, a, b int64) {
			evs = append(evs, vt.Event{At: at, Rank: r, Kind: k, ID: id, A: a, B: b})
			at += 8
		}
		add(vt.Enter, 0, 0, 0)
		for len(evs) < 2048-5 {
			add(vt.Enter, 1, 0, 0)
			add(vt.Enter, 2, 0, 0)
			add(vt.MsgSend, 0, int64((r+1)%8), 4096)
			add(vt.Exit, 2, 0, 0)
			add(vt.Exit, 1, 0, 0)
		}
		add(vt.Exit, 0, 0, 0)
		col.Append(evs)
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
	col.Events()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		profileSink = Analyze(col)
	}
}
