package vt

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"dynprof/internal/des"
)

// genLaneBatches builds a random insertion stream for the chunked-path
// differential test: batches of random length (some spanning several
// chunks) from a few lanes, on a coarse shared clock so that lanes tie on
// timestamps, starting earlier than the previous batch about half the
// time, and occasionally stepping back in time inside a batch.
func genLaneBatches(rng *rand.Rand) (lanes []int, batches [][]Event) {
	for b := 1 + rng.Intn(12); b > 0; b-- {
		lane := rng.Intn(4)
		n := 1 + rng.Intn(300)
		switch rng.Intn(6) {
		case 0:
			n = chunkEvents - 2 + rng.Intn(5) // straddles a chunk boundary
		case 1:
			n = chunkEvents + rng.Intn(3*chunkEvents) // several chunks
		}
		at := des.Time(rng.Intn(40) * 10)
		evs := make([]Event, n)
		for i := range evs {
			if rng.Intn(500) == 0 {
				at -= des.Time(rng.Intn(50))
			} else {
				at += des.Time(rng.Intn(2) * 10)
			}
			evs[i] = Event{
				At: at, Rank: int32(lane), TID: int32(lane % 2), Kind: Kind(rng.Intn(4)),
				ID: int32(rng.Intn(5)), A: int64(rng.Intn(3)), B: int64(i % 7),
			}
		}
		lanes = append(lanes, lane)
		batches = append(batches, evs)
	}
	return lanes, batches
}

// oracleCompactFile is WriteCompactTrace's output for a collector with no
// function tables holding batches, each encoded as one contiguous slice,
// and the matching suppression counters.
func oracleCompactFile(batches [][]Event) ([]byte, CompactStats) {
	var st CompactStats
	var enc encoder
	total := 0
	var frames []byte
	for _, b := range batches {
		block, recs, reps := enc.encodeBlock(nil, b)
		st.add(len(b), len(block), recs, reps)
		frames = binary.AppendUvarint(frames, uint64(len(b)))
		frames = binary.AppendUvarint(frames, uint64(len(block)))
		frames = append(frames, block...)
		total += len(b)
	}
	file := append([]byte(traceMagic), CompactVersion, 0)
	file = binary.AppendUvarint(file, uint64(total))
	return append(file, frames...), st
}

// TestChunkedCollectorMatchesOracles drives the chunk store through both
// entry points — Append copying a caller's slice, and thread buffers whose
// chained chunks the collector adopts, reused across flushes — optionally under a random spill
// threshold. The ordered view must equal a stable sort by At of the
// insertion stream, and CompactStats and WriteCompactTrace must equal
// encoding each batch as one contiguous slice.
func TestChunkedCollectorMatchesOracles(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 60; iter++ {
		lanes, batches := genLaneBatches(rng)
		col := NewCollector()
		if rng.Intn(3) == 0 {
			threshold := 1 + rng.Intn(3*chunkEvents)
			if err := col.SpillTo(filepath.Join(t.TempDir(), "diff.spill"), threshold); err != nil {
				t.Fatal(err)
			}
		}
		var bufs [4]threadBuf
		var stream []Event
		var received [][]Event // the batches as the collector received them
		for bi, b := range batches {
			if rng.Intn(2) == 0 {
				col.Append(b)
				stream = append(stream, b...)
				received = append(received, b)
				continue
			}
			tb := &bufs[lanes[bi]]
			for _, e := range b {
				tb.push(e)
			}
			if tb.n != len(b) {
				t.Fatalf("iter %d: thread buffer holds %d events, want %d", iter, tb.n, len(b))
			}
			col.appendThread(tb)
			if len(b) > 0 {
				stream = append(stream, b...)
				received = append(received, b)
			}
		}
		for i := range bufs {
			if cap(bufs[i].cur) == chunkEvents {
				freeChunk(bufs[i].cur)
			}
		}
		if err := col.SpillErr(); err != nil {
			t.Fatal(err)
		}
		if col.Len() != len(stream) || col.Spilled()+col.Resident() != col.Len() {
			t.Fatalf("iter %d: Len %d (spilled %d, resident %d), want %d",
				iter, col.Len(), col.Spilled(), col.Resident(), len(stream))
		}

		want := append([]Event(nil), stream...)
		sort.SliceStable(want, func(i, j int) bool { return want[i].At < want[j].At })
		view := col.Ordered()
		if got := view.AppendTo(nil); !reflect.DeepEqual(got, want) && len(want) > 0 {
			t.Fatalf("iter %d: ordered view differs from the stable sort of %d events", iter, len(want))
		}
		if view.Len() != len(want) {
			t.Fatalf("iter %d: view Len %d, want %d", iter, view.Len(), len(want))
		}
		for _, ch := range view.Chunks() {
			if len(ch) == 0 {
				t.Fatalf("iter %d: view holds an empty chunk", iter)
			}
		}
		if again := col.Ordered(); len(want) > 0 && &again.Chunks()[0][0] != &view.Chunks()[0][0] {
			t.Fatalf("iter %d: a second Ordered call rebuilt the view", iter)
		}

		file, st := oracleCompactFile(received)
		if got := col.CompactStats(); got != st {
			t.Fatalf("iter %d: CompactStats %+v, contiguous oracle %+v", iter, got, st)
		}
		if got := writeCompact(t, col); !bytes.Equal(got, file) {
			t.Fatalf("iter %d: WriteCompactTrace differs from the contiguous oracle", iter)
		}
		col.Release()
	}
}

// TestMidRunFlushReusesBuffer: after a mid-run flush the thread keeps its
// buffer for the next batch instead of growing a new one.
func TestMidRunFlushReusesBuffer(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	c := NewCtx(Options{Rank: 0, Collector: col, FlushThreshold: 8})
	c.Initialize(nil)
	id := c.FuncDef("f")
	ec := &fakeEC{}
	c.Begin(ec, id)
	first := &c.buffers[0].cur[:1][0]
	for i := 0; i < 40; i++ {
		ec.now++
		c.Begin(ec, id)
	}
	if got := &c.buffers[0].cur[:1][0]; got != first {
		t.Error("mid-run flush replaced the thread's buffer")
	}
	if cap(c.buffers[0].cur) != 8 {
		t.Errorf("buffer grew to %d events for batches of 8", cap(c.buffers[0].cur))
	}
	if c.MidRunFlushes() != 5 || col.Len() != 40 {
		t.Errorf("%d flushes, %d events collected; want 5 and 40", c.MidRunFlushes(), col.Len())
	}
}

// TestCountOnlyCollectorHoldsNoChunk: a count-only context never hands the
// collector an event, and an empty collector holds no chunk.
func TestCountOnlyCollectorHoldsNoChunk(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	c := NewCtx(Options{Rank: 0, Collector: col, CountOnly: true})
	c.Initialize(nil)
	id := c.FuncDef("f")
	for i := 0; i < 100; i++ {
		c.Begin(&fakeEC{}, id)
	}
	c.Flush()
	if col.store != nil || len(c.buffers) != 0 {
		t.Fatalf("count-only run allocated %d collector chunks, %d thread buffers", len(col.store), len(c.buffers))
	}
}

// TestReadTraceScanErrorReturnsNoCollector: a scan failure after events
// were parsed (a line over the 1 MiB limit) must return only the error,
// not a live collector holding pooled chunks.
func TestReadTraceScanErrorReturnsNoCollector(t *testing.T) {
	in := "EVT 1 0 0 enter 0 0 0\nEVT 2 0 0 exit 0 0 0\n" + strings.Repeat("y", 1<<20+1)
	col, err := ReadTrace(strings.NewReader(in))
	if err == nil || col != nil {
		t.Fatalf("got collector %v, error %v; want nil and an error", col != nil, err)
	}
}

// outOfRangeTrace is a binary trace file declaring one rank, 2^32+3, with
// one function, id 2^32+7, named "f", and no events. Cast to int32 the
// ids once loaded as rank 3 and function 7.
func outOfRangeTrace(rank, id int64) []byte {
	raw := append([]byte(traceMagic), CompactVersion, 1)
	raw = binary.AppendVarint(raw, rank)
	raw = append(raw, 1)
	raw = binary.AppendVarint(raw, id)
	raw = append(raw, 1, 'f')
	return append(raw, 0)
}

func TestReadCompactTraceRejectsOutOfRangeIDs(t *testing.T) {
	for name, raw := range map[string][]byte{
		"rank and id": outOfRangeTrace(1<<32+3, 1<<32+7),
		"rank":        outOfRangeTrace(-1<<31-1, 0),
		"id":          outOfRangeTrace(0, 1<<31),
	} {
		var fe *FormatError
		if col, err := ReadTraceAuto(bytes.NewReader(raw)); !errors.As(err, &fe) || col != nil {
			t.Errorf("%s: got collector %v, error %v; want *FormatError", name, col != nil, err)
		}
	}
	col, err := ReadTraceAuto(bytes.NewReader(outOfRangeTrace(1<<31-1, -1<<31)))
	if err != nil {
		t.Fatalf("int32 extremes rejected: %v", err)
	}
	defer col.Release()
	if got := col.FuncName(1<<31-1, -1<<31); got != "f" {
		t.Errorf("extreme ids resolve to %q", got)
	}
}

// FuzzSpillReader feeds arbitrary spill files to spillSink.decodeAll, the
// decoder behind a spilling collector's ordered view: it must never panic,
// must reject bad input only through *FormatError, must return exactly the
// declared event count in densely filled chunks, and must not allocate
// beyond what the input and that count account for. count is the sink's
// own record of the events on disk; the harness bounds it by the input's
// length, as a repeat record can expand without limit. The seed corpus
// (testdata/fuzz/FuzzSpillReader) holds spill files written by spilling
// collectors.
func FuzzSpillReader(f *testing.F) {
	dir := f.TempDir()
	f.Fuzz(func(t *testing.T, count uint32, file []byte) {
		if uint64(count) > 256*uint64(len(file))+64 {
			t.Skip("claims more events than the harness decodes")
		}
		path := filepath.Join(dir, "fuzz.spill")
		if err := os.WriteFile(path, file, 0o600); err != nil {
			t.Fatal(err)
		}
		fh, err := os.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer fh.Close()
		s := &spillSink{f: fh, path: path, count: int(count), bytes: max(len(file)-spillHdrBytes, 0)}

		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		all, err := s.decodeAll()
		runtime.ReadMemStats(&m1)
		defer all.release()
		const chunkBytes = chunkEvents * 40
		if grew, bound := m1.TotalAlloc-m0.TotalAlloc, uint64(2*len(file)+80*int(count)+(len(all)+2)*chunkBytes+1<<20); grew > bound {
			t.Fatalf("decoding %d bytes allocated %d bytes (bound %d)", len(file), grew, bound)
		}
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejected with %T %v, want *FormatError", err, err)
			}
			return
		}
		n := 0
		for i, ch := range all {
			if i < len(all)-1 && len(ch) != chunkEvents {
				t.Fatalf("chunk %d of %d holds %d events: not dense", i, len(all), len(ch))
			}
			n += len(ch)
		}
		if n != int(count) {
			t.Fatalf("decoded %d events, sink declares %d", n, count)
		}
	})
}
