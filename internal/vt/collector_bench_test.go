package vt

import (
	"bytes"
	"fmt"
	"io"
	"path/filepath"
	"testing"

	"dynprof/internal/des"
)

// mkBatch builds one rank's flush batch: times non-decreasing, as produced
// by a real per-thread buffer.
func mkBatch(rank int32, start des.Time, n int) []Event {
	evs := make([]Event, n)
	for i := range evs {
		evs[i] = Event{
			At: start + des.Time(i), Rank: rank, TID: 0,
			Kind: Kind(i % 2), ID: int32(i % 7),
		}
	}
	return evs
}

// BenchmarkCollectorAppend measures handing flush batches of 256 events
// to the collector (the per-rank hot path at every mid-run flush and at
// termination): "copy" appends a caller's slice, "thread" a thread buffer
// grown to the same batch, whose chunks the collector reuses.
func BenchmarkCollectorAppend(b *testing.B) {
	batch := mkBatch(0, 0, 256)
	for _, mode := range []string{"copy", "thread"} {
		b.Run(mode, func(b *testing.B) {
			b.ReportAllocs()
			var tb threadBuf
			col := NewCollector()
			for i := 0; i < b.N; i++ {
				if col.Len() > 1<<20 {
					// Bound collector growth so the benchmark measures
					// Append, not unbounded memory pressure.
					b.StopTimer()
					col.Release()
					col = NewCollector()
					b.StartTimer()
				}
				if mode == "copy" {
					col.Append(batch)
					continue
				}
				for _, e := range batch {
					tb.push(e)
				}
				col.appendThread(&tb)
			}
			col.Release()
		})
	}
}

// BenchmarkCollectorEvents measures building the ordered view: ranks flush
// per-rank buffers, then one Ordered call runs the k-way merge that the
// analysis, trace-writer and render paths all share.
func BenchmarkCollectorEvents(b *testing.B) {
	for _, ranks := range []int{4, 32} {
		b.Run(fmt.Sprintf("%dranks", ranks), func(b *testing.B) {
			b.ReportAllocs()
			batches := make([][]Event, 0, ranks*4)
			for r := 0; r < ranks; r++ {
				for batch := 0; batch < 4; batch++ {
					batches = append(batches, mkBatch(int32(r), des.Time(batch*512), 512))
				}
			}
			for i := 0; i < b.N; i++ {
				b.StopTimer()
				col := NewCollector()
				for _, batch := range batches {
					col.Append(batch)
				}
				b.StartTimer()
				if n := col.Ordered().Len(); n != ranks*4*512 {
					b.Fatalf("got %d events", n)
				}
				b.StopTimer()
				col.Release()
				b.StartTimer()
			}
		})
	}
}

// BenchmarkRecordFlush measures the whole in-memory trace path per event:
// VT_begin/VT_end probes record on four threads in lockstep, Flush hands
// the buffers to the collector, and one pass reads the ordered view.
// "flush0" buffers everything until Flush, as the trace workload does;
// "flush8" drains each thread every 8 events, as the scale sweep does.
func BenchmarkRecordFlush(b *testing.B) {
	const threads, perThread = 4, 1 << 14
	for _, flushAt := range []int{0, 8} {
		b.Run(fmt.Sprintf("flush%d", flushAt), func(b *testing.B) {
			b.ReportAllocs()
			ecs := make([]*fakeEC, threads)
			for i := range ecs {
				ecs[i] = &fakeEC{tid: i}
			}
			for i := 0; i < b.N; i++ {
				col := NewCollector()
				c := NewCtx(Options{Rank: 0, Collector: col, FlushThreshold: flushAt})
				c.Initialize(nil)
				id := c.FuncDef("solve")
				for step := 0; step < perThread/2; step++ {
					for _, ec := range ecs {
						ec.now += 10
						c.Begin(ec, id)
						ec.now += 5
						c.End(ec, id)
					}
				}
				c.Flush()
				var sum des.Time
				for _, ch := range col.Ordered().Chunks() {
					for j := range ch {
						sum += ch[j].At
					}
				}
				if sum == 0 {
					b.Fatal("empty trace")
				}
				col.Release()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*threads*perThread), "ns/event")
		})
	}
}

// benchDumpCollector is the trace-path benchmarks' input: 16 ranks of
// 16384 near-repeat events (nearRepeatBatch), each rank's timeline handed
// over in 16 flush batches with the ranks' batches interleaved, as a
// collector receives them. That is 64 frames over 256 time-sorted
// segments, enough that -cpu 1,2 shows each stage's speed-up.
func benchDumpCollector() *Collector {
	const ranks, batches, perRank = 16, 16, 16 * chunkEvents
	col := NewCollector()
	timelines := make([][]Event, ranks)
	for r := range timelines {
		col.AddFuncTable(int32(r), map[int32]string{1: "solve", 2: "halo"})
		timelines[r] = nearRepeatBatch(int32(r), perRank)
	}
	for b := 0; b < batches; b++ {
		for _, tl := range timelines {
			col.Append(tl[b*perRank/batches : (b+1)*perRank/batches])
		}
	}
	return col
}

// BenchmarkCollectorOrdered measures the k-way merge that builds the
// ordered view of benchDumpCollector's 256 segments.
func BenchmarkCollectorOrdered(b *testing.B) {
	b.ReportAllocs()
	col := benchDumpCollector()
	defer col.Release()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.viewOwn.release()
		col.viewOK = false
		col.Ordered()
	}
}

// BenchmarkCollectorWriteTrace measures writing the trace file: the
// ordered view cut into frames and each frame encoded (the merged view is
// built once, before timing; BenchmarkCollectorOrdered times the merge).
func BenchmarkCollectorWriteTrace(b *testing.B) {
	b.ReportAllocs()
	col := benchDumpCollector()
	defer col.Release()
	col.Ordered()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col.WriteTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadTrace measures reading BenchmarkCollectorWriteTrace's file
// back into a collector.
func BenchmarkReadTrace(b *testing.B) {
	b.ReportAllocs()
	var dump bytes.Buffer
	col := benchDumpCollector()
	if err := col.WriteTrace(&dump); err != nil {
		b.Fatal(err)
	}
	col.Release()
	b.SetBytes(int64(dump.Len()))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col, err := ReadTrace(bytes.NewReader(dump.Bytes()))
		if err != nil {
			b.Fatal(err)
		}
		col.Release()
	}
}

// benchLoopBatch is the suppression benchmarks' input: a loop-shaped batch
// (the redundant case compaction targets) of n events.
func benchLoopBatch(n int) []Event {
	return loopBatch(0, 0, 0, (n+3)/4)[:n]
}

// BenchmarkCollectorSpill is BenchmarkCollectorAppend against a spilling
// collector: every 16th batch crosses the threshold, and the arena is
// encoded, one block per batch, and written out. The bytes/event metric
// is the suppression ratio on loop-shaped input.
func BenchmarkCollectorSpill(b *testing.B) {
	b.ReportAllocs()
	batch := benchLoopBatch(256)
	col := NewCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(b.TempDir(), "bench.spill"), 16*len(batch)); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		col.Append(batch)
	}
	b.StopTimer()
	if err := col.SpillErr(); err != nil {
		b.Fatal(err)
	}
	if st := col.CompactStats(); st.EventsIn > 0 {
		b.ReportMetric(float64(st.Bytes)/float64(st.EventsIn), "bytes/event")
	}
}

// BenchmarkSpillRead measures decoding a spill file back into chunks: 64
// spilled batches of near-repeat events, 256 per batch, so the frames
// carry real literals as well as repeats.
func BenchmarkSpillRead(b *testing.B) {
	b.ReportAllocs()
	col := NewCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(b.TempDir(), "bench.spill"), 1); err != nil {
		b.Fatal(err)
	}
	for i := int32(0); i < 64; i++ {
		col.Append(nearRepeatBatch(i, 256))
	}
	if err := col.SpillErr(); err != nil {
		b.Fatal(err)
	}
	b.SetBytes(int64(col.spill.bytes))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		all, err := col.spill.decodeAll()
		if err != nil {
			b.Fatal(err)
		}
		all.release()
	}
}

// BenchmarkCompactEncode measures the raw encoder, ns/event and
// bytes/event of one block encode, on loop-shaped input and on near
// repeats, where most events have twins at several periods but few
// matches run a whole period.
func BenchmarkCompactEncode(b *testing.B) {
	for _, in := range []struct {
		name string
		evs  []Event
	}{
		{"loop", benchLoopBatch(chunkEvents)},
		{"near-repeat", nearRepeatBatch(0, chunkEvents)},
	} {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			var enc encoder
			buf, _, _ := enc.encodeBlock(nil, in.evs)
			b.SetBytes(int64(len(in.evs)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				buf, _, _ = enc.encodeBlock(buf[:0], in.evs)
			}
			b.StopTimer()
			b.ReportMetric(float64(len(buf))/float64(len(in.evs)), "bytes/event")
		})
	}
}

// BenchmarkCompactDecode measures reconstruction of the same block.
func BenchmarkCompactDecode(b *testing.B) {
	b.ReportAllocs()
	evs := benchLoopBatch(4096)
	var enc encoder
	block, _, _ := enc.encodeBlock(nil, evs)
	var dec decoder
	out := make([]Event, 0, len(evs))
	b.SetBytes(int64(len(evs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		out, _, _, err = dec.block(block, len(evs), out[:0])
		if err != nil {
			b.Fatal(err)
		}
	}
}
