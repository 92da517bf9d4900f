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

// BenchmarkCollectorAppend measures merging flush batches into the
// collector (the per-rank hot path at every mid-run flush and at
// termination).
func BenchmarkCollectorAppend(b *testing.B) {
	b.ReportAllocs()
	batch := mkBatch(0, 0, 256)
	b.ResetTimer()
	col := NewCollector()
	for i := 0; i < b.N; i++ {
		if col.Len() > 1<<20 {
			// Bound collector growth so the benchmark measures Append,
			// not unbounded memory pressure.
			b.StopTimer()
			col = NewCollector()
			b.StartTimer()
		}
		col.Append(batch)
	}
}

// BenchmarkCollectorEvents measures the merged-view cost: ranks flush
// per-rank buffers, then Events is called repeatedly (as the analysis,
// trace-writer and render paths all do).
func BenchmarkCollectorEvents(b *testing.B) {
	for _, ranks := range []int{4, 32} {
		b.Run(fmt.Sprintf("%dranks", ranks), func(b *testing.B) {
			b.ReportAllocs()
			col := NewCollector()
			for r := 0; r < ranks; r++ {
				for batch := 0; batch < 4; batch++ {
					col.Append(mkBatch(int32(r), des.Time(batch*512), 512))
				}
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				evs := col.Events()
				if len(evs) != ranks*4*512 {
					b.Fatalf("got %d events", len(evs))
				}
			}
		})
	}
}

// benchDumpCollector is the dump benchmarks' input: 8 ranks of 2048
// events each, with a two-entry function table per rank.
func benchDumpCollector() *Collector {
	col := NewCollector()
	for r := 0; r < 8; r++ {
		col.AddFuncTable(int32(r), map[int32]string{0: "main", 1: "solve"})
		col.Append(mkBatch(int32(r), 0, 2048))
	}
	return col
}

// BenchmarkCollectorWriteTrace measures the dump path end to end.
func BenchmarkCollectorWriteTrace(b *testing.B) {
	b.ReportAllocs()
	col := benchDumpCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col.WriteTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkReadTrace measures parsing BenchmarkCollectorWriteTrace's dump
// back into a collector.
func BenchmarkReadTrace(b *testing.B) {
	b.ReportAllocs()
	var dump bytes.Buffer
	if err := benchDumpCollector().WriteTrace(&dump); err != nil {
		b.Fatal(err)
	}
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

// BenchmarkCompactEncode measures the raw encoder on loop-shaped input:
// ns/event and bytes/event of one block encode.
func BenchmarkCompactEncode(b *testing.B) {
	b.ReportAllocs()
	evs := benchLoopBatch(4096)
	var enc encoder
	buf, _, _ := enc.encodeBlock(nil, evs)
	b.SetBytes(int64(len(evs)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf, _, _ = enc.encodeBlock(buf[:0], evs)
	}
	b.StopTimer()
	b.ReportMetric(float64(len(buf))/float64(len(evs)), "bytes/event")
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

// BenchmarkCollectorWriteCompactTrace is the compact dump path against
// BenchmarkCollectorWriteTrace's exact workload: every batch is encoded at
// write time (text formatting vs block encoding).
func BenchmarkCollectorWriteCompactTrace(b *testing.B) {
	b.ReportAllocs()
	col := benchDumpCollector()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := col.WriteCompactTrace(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
