package vt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"dynprof/internal/des"
)

// loopBatch models the redundant trace a loop nest emits: iters repetitions
// of an Enter/Exit body over a handful of functions, with a fixed
// per-iteration time step — the sequence redundancy suppression exists to
// collapse.
func loopBatch(rank, tid int32, start des.Time, iters int) []Event {
	evs := make([]Event, 0, iters*4)
	at := start
	for i := 0; i < iters; i++ {
		for _, step := range []struct {
			k  Kind
			id int32
			d  des.Time
		}{
			{Enter, 1, 5}, {Enter, 2, 10}, {Exit, 2, 90}, {Exit, 1, 15},
		} {
			at += step.d
			evs = append(evs, Event{At: at, Rank: rank, TID: tid, Kind: step.k, ID: step.id})
		}
	}
	return evs
}

// nearRepeatBatch is loopBatch with the inner exit's time step jittering
// from iteration to iteration: every event has earlier twins at several
// periods, but few matches run a whole period, so the repeat detector
// tries many periods per event.
func nearRepeatBatch(rank int32, n int) []Event {
	evs := make([]Event, 0, n+3)
	var at des.Time
	for iter := uint32(0); len(evs) < n; iter++ {
		jitter := des.Time(iter * 2654435761 >> 30)
		for _, step := range []struct {
			k  Kind
			id int32
			d  des.Time
		}{
			{Enter, 1, 5}, {Enter, 2, 10}, {Exit, 2, 90 + jitter}, {Exit, 1, 15},
		} {
			at += step.d
			evs = append(evs, Event{At: at, Rank: rank, Kind: step.k, ID: step.id})
		}
	}
	return evs[:n]
}

func TestCompactRoundTripLoop(t *testing.T) {
	evs := loopBatch(0, 0, 0, 100)
	var enc encoder
	block, recs, reps := enc.encodeBlock(nil, evs)
	if reps == 0 {
		t.Fatal("loop body produced no repeat records")
	}
	if recs >= len(evs)/10 {
		t.Errorf("suppression left %d records for %d events", recs, len(evs))
	}
	if ratio := float64(len(evs)*EventBytes) / float64(len(block)); ratio < 5 {
		t.Errorf("compression ratio %.1fx below the 5x target", ratio)
	}
	var dec decoder
	got, drecs, dreps, err := dec.block(block, len(evs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if drecs != recs || dreps != reps {
		t.Errorf("decode counted %d/%d records, encode %d/%d", drecs, dreps, recs, reps)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatal("decoded events diverge from the originals")
	}
}

// TestCompactRoundTripAdversarial exercises every literal-tag feature:
// lane switches, A/B payloads, kind escapes (ConfSync is kind 10; kinds
// >= 15 need the escape), dictionary hits and misses, out-of-range and
// negative ids, and time going backwards between events.
func TestCompactRoundTripAdversarial(t *testing.T) {
	evs := []Event{
		{At: 100, Rank: 0, TID: 0, Kind: Enter, ID: 1},
		{At: 100, Rank: 0, TID: 0, Kind: Exit, ID: 1},
		{At: 90, Rank: 3, TID: 1, Kind: MsgSend, ID: 7, A: 2, B: 4096},
		{At: 95, Rank: 3, TID: 1, Kind: MsgRecv, ID: 7, A: -1, B: 1 << 40},
		{At: 95, Rank: 0, TID: 2, Kind: ConfSync, ID: 0, A: 3},
		{At: 200, Rank: 0, TID: 2, Kind: Kind(20), ID: maxDirectID + 5},
		{At: 201, Rank: 0, TID: 2, Kind: Kind(20), ID: maxDirectID + 5},
		{At: 202, Rank: 0, TID: 2, Kind: Enter, ID: -3},
		{At: 203, Rank: 0, TID: 2, Kind: Enter, ID: 1},
	}
	var enc encoder
	block, _, _ := enc.encodeBlock(nil, evs)
	var dec decoder
	got, _, _, err := dec.block(block, len(evs), nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, evs) {
		t.Fatalf("adversarial round trip diverged:\n got %v\nwant %v", got, evs)
	}
}

func TestCompactDecoderRejectsCorruption(t *testing.T) {
	evs := loopBatch(0, 0, 0, 4)
	var enc encoder
	block, _, _ := enc.encodeBlock(nil, evs)
	var dec decoder
	cases := map[string][]byte{
		"truncated":      block[:len(block)-1],
		"trailing bytes": append(append([]byte{}, block...), 0x00),
	}
	for name, bad := range cases {
		var fe *FormatError
		if _, _, _, err := dec.block(bad, len(evs), nil); !errors.As(err, &fe) {
			t.Errorf("%s block: got %v, want *FormatError", name, err)
		}
	}
	// A repeat op whose pattern reaches before the block start.
	bad := []byte{tagRepeat | 4, 2}
	var fe *FormatError
	if _, _, _, err := dec.block(bad, 8, nil); !errors.As(err, &fe) {
		t.Errorf("orphan repeat: got %v, want *FormatError", err)
	}
}

// writeTrace returns col's trace file.
func writeTrace(t *testing.T, col *Collector) []byte {
	t.Helper()
	var file bytes.Buffer
	if err := col.WriteTrace(&file); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestCompactCollectorMatchesVerbatim round-trips interleaved batches
// through the trace file and requires the decoded collector to reproduce
// the source's ordered view and length, and to write the same file again.
// The source's encoding counters follow its Append batches; the decoded
// collector's follow the file's frames.
func TestCompactCollectorMatchesVerbatim(t *testing.T) {
	plain := NewCollector()
	defer plain.Release()
	fillBatches(plain, 20, 50)
	plain.Append(loopBatch(0, 0, 1000, 50))
	plain.Append(loopBatch(1, 1, 980, 50))
	file := writeTrace(t, plain)
	back, err := ReadTrace(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if plain.Len() != back.Len() || plain.Bytes() != back.Bytes() {
		t.Fatalf("Len/Bytes diverge: %d/%d vs %d/%d", plain.Len(), plain.Bytes(), back.Len(), back.Bytes())
	}
	if !reflect.DeepEqual(plain.Ordered().AppendTo(nil), back.Ordered().AppendTo(nil)) {
		t.Fatal("ordered views diverge across the file round trip")
	}
	if !bytes.Equal(writeTrace(t, back), file) {
		t.Fatal("rewriting the read-back collector does not reproduce the file")
	}
	st := plain.CompactStats()
	if st.EventsIn != plain.Len() || st.Records == 0 || st.Repeats == 0 {
		t.Errorf("inconsistent stats: %+v (len %d)", st, plain.Len())
	}
	if st.Bytes >= plain.Bytes() {
		t.Errorf("compact bytes %d not below verbatim %d", st.Bytes, plain.Bytes())
	}
	if got := back.CompactStats(); got.EventsIn != back.Len() || got.Bytes >= len(file) {
		t.Errorf("decoded collector's stats %+v for a %d-byte file of %d events", got, len(file), back.Len())
	}
	plain.Append(loopBatch(2, 0, 5000, 10))
	if got := plain.CompactStats(); got.EventsIn != plain.Len() {
		t.Errorf("stats not refreshed by Append: %d events in, len %d", got.EventsIn, plain.Len())
	}
}

// TestCompactSpillEquivalence: a spilling collector encodes the same
// blocks at spill time that a resident one encodes on demand, so its
// merged view and encoding counters equal the resident collector's.
func TestCompactSpillEquivalence(t *testing.T) {
	dir := t.TempDir()
	plain := NewCollector()
	defer plain.Release()
	spilling := NewCollector()
	defer spilling.Release()
	if err := spilling.SpillTo(filepath.Join(dir, "trace.spill"), 128); err != nil {
		t.Fatal(err)
	}
	for _, col := range []*Collector{plain, spilling} {
		fillBatches(col, 20, 50)
		col.Append(loopBatch(2, 0, 500, 80))
	}
	if spilling.Spilled() == 0 {
		t.Fatal("no events spilled despite tiny threshold")
	}
	if spilling.Len() != plain.Len() {
		t.Fatalf("Len diverges: %d vs %d", spilling.Len(), plain.Len())
	}
	if err := spilling.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spilling.Ordered().AppendTo(nil), plain.Ordered().AppendTo(nil)) {
		t.Fatal("merged views diverge between spilling and resident collectors")
	}
	if got, want := spilling.CompactStats(), plain.CompactStats(); got != want {
		t.Errorf("spilling stats %+v, resident %+v", got, want)
	}
}

// TestSpillRejectsUnknownVersion corrupts the spill header's version byte
// under a live collector and requires the read path to surface a typed
// *FormatError instead of misparsing. Version 1, the retired format of
// fixed 40-byte records, is rejected like any other.
func TestSpillRejectsUnknownVersion(t *testing.T) {
	for _, version := range []byte{1, 99} {
		col := NewCollector()
		path := filepath.Join(t.TempDir(), "trace.spill")
		if err := col.SpillTo(path, 64); err != nil {
			t.Fatal(err)
		}
		fillBatches(col, 10, 50)
		if col.Spilled() == 0 {
			t.Fatal("no events spilled")
		}
		f, err := os.OpenFile(path, os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.WriteAt([]byte{version}, int64(len(spillMagic))); err != nil {
			t.Fatal(err)
		}
		f.Close()
		col.Ordered()
		var fe *FormatError
		if err := col.SpillErr(); !errors.As(err, &fe) {
			t.Errorf("version %d: got %v, want *FormatError", version, err)
		} else if fe.Version != int(version) {
			t.Errorf("version %d: reported version %d", version, fe.Version)
		}
		col.Release()
	}
}

// TestCompactTraceFileRoundTrip writes a trace file from an Appended
// collector ("verbatim") and from one read back from such a file
// ("compact"). Reading the file back must reproduce the ordered events,
// and writing the read-back collector again must reproduce the file byte
// for byte.
func TestCompactTraceFileRoundTrip(t *testing.T) {
	build := func() *Collector {
		col := NewCollector()
		fillBatches(col, 20, 50)
		col.Append(loopBatch(0, 0, 2000, 60))
		return col
	}
	for _, src := range []struct {
		name string
		mk   func() *Collector
	}{
		{"verbatim", build},
		{"compact", func() *Collector {
			col := build()
			defer col.Release()
			back, err := ReadTrace(bytes.NewReader(writeTrace(t, col)))
			if err != nil {
				t.Fatal(err)
			}
			return back
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			col := src.mk()
			defer col.Release()
			file := writeTrace(t, col)
			if len(file) >= col.Bytes() {
				t.Errorf("trace file %d bytes not below the verbatim %d", len(file), col.Bytes())
			}
			back, err := ReadTrace(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Release()
			if !reflect.DeepEqual(back.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
				t.Fatal("trace read back from the file diverges from the source")
			}
			if back.FuncName(0, 2) != "solve" {
				t.Fatalf("function table lost: %q", back.FuncName(0, 2))
			}
			if !bytes.Equal(writeTrace(t, back), file) {
				t.Fatal("rewriting the read-back collector does not reproduce the file")
			}
		})
	}
}

// TestTraceFileFramesFollowOrderedView: the file's frames are the ordered
// view cut into chunkEvents events each, only the last one shorter, so the
// collector read back is one timeline whose ordered view is its own store.
func TestTraceFileFramesFollowOrderedView(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	for r := int32(0); r < 5; r++ {
		col.Append(mkBatch(r, des.Time(r), chunkEvents/2+int(r)*777))
	}
	want := col.Ordered().AppendTo(nil)
	file := writeTrace(t, col)

	br := bufio.NewReader(bytes.NewReader(file))
	hdr, total, err := readTraceHeader(br, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	hdr.Release()
	if total != uint64(len(want)) {
		t.Fatalf("header claims %d events, view holds %d", total, len(want))
	}
	var enc encoder
	for at := 0; at < len(want); at += chunkEvents {
		frame := want[at:min(at+chunkEvents, len(want))]
		count, _ := binary.ReadUvarint(br)
		blen, _ := binary.ReadUvarint(br)
		block := make([]byte, blen)
		if _, err := io.ReadFull(br, block); err != nil {
			t.Fatal(err)
		}
		if wantBlock, _, _ := enc.encodeBlock(nil, frame); count != uint64(len(frame)) || !bytes.Equal(block, wantBlock) {
			t.Fatalf("frame at event %d: %d events, want the view's next %d", at, count, len(frame))
		}
	}
	if rest, _ := io.ReadAll(br); len(rest) > 0 {
		t.Fatalf("%d bytes after the last frame", len(rest))
	}

	back, err := ReadTrace(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if len(back.segs) != 1 {
		t.Fatalf("read-back collector holds %d segments, want one timeline", len(back.segs))
	}
	if view := back.Ordered(); &view.Chunks()[0][0] != &back.store[0][0] {
		t.Fatal("read-back collector's ordered view is not its own store")
	}
}

// TestCompactTraceFileSpilledSource: a spilling collector's file — its disk
// prefix decoded and merged with the resident batches — is byte-identical
// to a resident collector's fed the same batches.
func TestCompactTraceFileSpilledSource(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(t.TempDir(), "t.spill"), 120); err != nil {
		t.Fatal(err)
	}
	plain := NewCollector()
	defer plain.Release()
	fillBatches(col, 20, 50)
	fillBatches(plain, 20, 50)
	if col.Spilled() == 0 || col.Resident() == 0 {
		t.Fatalf("want events both spilled and resident, have %d and %d", col.Spilled(), col.Resident())
	}
	file := writeTrace(t, col)
	if !bytes.Equal(file, writeTrace(t, plain)) {
		t.Fatal("spilled source's file diverges from the resident source's")
	}
	back, err := ReadTrace(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if !reflect.DeepEqual(back.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
		t.Fatal("trace read back from a spilled source diverges")
	}
}

func TestCompactTraceRejectsUnknownVersion(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillBatches(col, 2, 10)
	raw := writeTrace(t, col)
	raw[4] = 99
	var fe *FormatError
	if _, err := ReadTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	} else if fe.Version != 99 {
		t.Fatalf("reported version %d, want 99", fe.Version)
	}
}

// TestReadTraceNamesLegacyTextFile: a textual trace from an older build is
// rejected with a *FormatError that says what it is, not as a bad magic.
func TestReadTraceNamesLegacyTextFile(t *testing.T) {
	in := "# vgvtrace 1\nFUNC 0 0 main\nEVT 5 0 0 enter 0 0 0\n"
	col, err := ReadTrace(strings.NewReader(in))
	var fe *FormatError
	if !errors.As(err, &fe) || col != nil {
		t.Fatalf("ReadTrace = %v, %v; want a *FormatError", col, err)
	}
	if !strings.Contains(err.Error(), "textual trace") || strings.Contains(err.Error(), "magic") {
		t.Fatalf("error %q does not name the legacy textual format", err)
	}
}

// craftedTraces are trace files that once crashed or hung the reader; each
// must be rejected with *FormatError.
var craftedTraces = map[string][]byte{
	// 0 ranks, 1 event, then a frame of 1 event claiming a 2^62-byte
	// block: the reader allocated the claimed length up front.
	"frame length": append([]byte("VGVC\x02\x00\x01\x01"), binary.AppendUvarint(nil, 1<<62)...),
	// 0 ranks, 2 events, one 14-byte frame of 2 events: a literal (new
	// id 0 at time 0), then a repeat of length 1 with 2^63 copies, which
	// wrapped past the count check and expanded without bound.
	"repeat count": append([]byte("VGVC\x02\x00\x02\x02\x0e\x40\x00\x00\x81"), binary.AppendUvarint(nil, 1<<63)...),
}

func TestReadCompactTraceRejectsCraftedInputs(t *testing.T) {
	for name, raw := range craftedTraces {
		var fe *FormatError
		if _, err := ReadTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want *FormatError", name, err)
		}
	}
}

// TestReadersRejectOutOfRangePeer: a message's A is its peer rank, so a
// send or recv whose peer lies outside int32 is rejected with a
// *FormatError like an out-of-range rank, instead of reaching VGV, which
// would charge the message to a truncated rank.
func TestReadersRejectOutOfRangePeer(t *testing.T) {
	for _, peer := range []int64{math.MinInt64, 1<<32 + 1, -1<<31 - 1} {
		for _, k := range []Kind{MsgSend, MsgRecv} {
			col := NewCollector()
			col.Append([]Event{{At: 1, Kind: k, A: peer, B: 64}})
			file := writeTrace(t, col)
			col.Release()
			var fe *FormatError
			if back, err := ReadTrace(bytes.NewReader(file)); !errors.As(err, &fe) {
				t.Errorf("%s to peer %d: ReadTrace = %v, %v; want a *FormatError", k, peer, back, err)
			}
		}
	}
	col := NewCollector()
	defer col.Release()
	col.Append([]Event{{At: 1, Kind: MsgRecv, A: math.MaxInt32, B: 8}, {At: 2, Kind: MsgSend, A: math.MinInt32}})
	back, err := ReadTrace(bytes.NewReader(writeTrace(t, col)))
	if err != nil {
		t.Fatalf("peers at the int32 extremes rejected: %v", err)
	}
	back.Release()
}

// failingWriter accepts n bytes, then fails every write.
type failingWriter struct{ n int }

var errInjected = errors.New("injected failure")

func (w *failingWriter) Write(p []byte) (int, error) {
	if len(p) > w.n {
		n := w.n
		w.n = 0
		return n, errInjected
	}
	w.n -= len(p)
	return len(p), nil
}

// failingReader serves r until n bytes have been read, then fails.
type failingReader struct {
	r io.Reader
	n int
}

func (r *failingReader) Read(p []byte) (int, error) {
	if r.n <= 0 {
		return 0, errInjected
	}
	if len(p) > r.n {
		p = p[:r.n]
	}
	n, err := r.r.Read(p)
	r.n -= n
	return n, err
}

// fillNearRepeats appends four ranks' flush batches of jittering loops,
// whose file spans several frames.
func fillNearRepeats(col *Collector) {
	col.AddFuncTable(0, map[int32]string{0: "main", 1: "solve"})
	for r := int32(0); r < 4; r++ {
		col.Append(nearRepeatBatch(r, 5*chunkEvents))
	}
}

func TestWriteTraceStopsOnWriteError(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillNearRepeats(col)
	full := writeTrace(t, col)
	for _, n := range []int{0, 10, 64 << 10, len(full) / 3, len(full) - 1} {
		if err := col.WriteTrace(&failingWriter{n: n}); !errors.Is(err, errInjected) {
			t.Fatalf("writer failing after %d of %d bytes: err = %v", n, len(full), err)
		}
	}
}

// TestReadTraceStopsOnReadError: a reader that fails part way reports its
// own error, not a truncated file, and no collector.
func TestReadTraceStopsOnReadError(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillNearRepeats(col)
	full := writeTrace(t, col)
	for _, n := range []int{0, 3, 40, len(full) / 2, len(full) - 1} {
		back, err := ReadTrace(&failingReader{r: bytes.NewReader(full), n: n})
		var fe *FormatError
		if !errors.Is(err, errInjected) || errors.As(err, &fe) || back != nil {
			t.Fatalf("reader failing after %d of %d bytes: ReadTrace = %v, %v", n, len(full), back, err)
		}
	}
}

// atWorkers runs fn with GOMAXPROCS at n, so that the trace path runs on n
// workers whatever the host's core count.
func atWorkers(n int, fn func()) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(n))
	fn()
}

// traceFrames returns the offset of each frame header of a trace file and
// of the block that follows it.
func traceFrames(t *testing.T, file []byte) (headers, blocks []int) {
	t.Helper()
	r := bytes.NewReader(file)
	br := bufio.NewReader(r)
	col, total, err := readTraceHeader(br, new(bytes.Buffer))
	if err != nil {
		t.Fatal(err)
	}
	col.Release()
	at := func() int { return len(file) - r.Len() - br.Buffered() }
	for n := uint64(0); n < total; {
		headers = append(headers, at())
		count, _ := binary.ReadUvarint(br)
		blen, _ := binary.ReadUvarint(br)
		blocks = append(blocks, at())
		br.Discard(int(blen))
		n += count
	}
	return headers, blocks
}

// TestReadTraceFirstError damages a trace file of 20 frames and requires
// ReadTrace to fail at any worker count with the error a frame-by-frame
// walk meets first: a corrupt block in frame 2 is reported even though
// the walker may already have met the bad header of frame 5, a truncated
// file or a failing reader further on.
func TestReadTraceFirstError(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillNearRepeats(col)
	full := writeTrace(t, col)
	headers, blocks := traceFrames(t, full)
	if len(headers) < 6 {
		t.Fatalf("%d frames, want at least 6", len(headers))
	}
	damaged := func(block2, header5 bool) []byte {
		f := bytes.Clone(full)
		if block2 {
			f[blocks[2]] = tagRepeat | 1 // a repeat with no history
		}
		if header5 {
			f[headers[5]] = 0 // a frame of no events
		}
		return f
	}
	inputs := map[string]func() io.Reader{
		"block 2 and header 5": func() io.Reader { return bytes.NewReader(damaged(true, true)) },
		"header 5":             func() io.Reader { return bytes.NewReader(damaged(false, true)) },
		"block 2, cut in frame 7": func() io.Reader {
			return bytes.NewReader(damaged(true, false)[:blocks[7]+10])
		},
		"block 2, reader failing in frame 7": func() io.Reader {
			return &failingReader{r: bytes.NewReader(damaged(true, false)), n: blocks[7] + 10}
		},
		"block 2, reader failing in frame 3": func() io.Reader {
			return &failingReader{r: bytes.NewReader(damaged(true, false)), n: blocks[3] + 10}
		},
	}
	for name, input := range inputs {
		var want string
		for _, workers := range []int{1, 2, 3, 4} {
			var back *Collector
			var err error
			atWorkers(workers, func() { back, err = ReadTrace(input()) })
			if err == nil || back != nil {
				t.Fatalf("%s, %d workers: ReadTrace = %v, %v; want an error", name, workers, back, err)
			}
			if workers == 1 {
				want = err.Error()
			} else if err.Error() != want {
				t.Fatalf("%s, %d workers: %v; one worker: %s", name, workers, err, want)
			}
		}
	}
	var fe *FormatError
	var err error
	atWorkers(4, func() { _, err = ReadTrace(bytes.NewReader(damaged(true, true))) })
	if !errors.As(err, &fe) || fe.What != "compact block" || fe.Detail != "repeat record out of range" {
		t.Fatalf("frame 2's corrupt block before frame 5's bad header: got %v", err)
	}
	atWorkers(4, func() { _, err = ReadTrace(bytes.NewReader(damaged(false, true))) })
	if !errors.As(err, &fe) || fe.What != "trace file" || fe.Detail != "bad frame header" {
		t.Fatalf("frame 5's bad header alone: got %v", err)
	}
}

// TestCompactReleaseRecycles verifies the arena and the encoder return to
// the pools: a release/new cycle at steady state must not grow the heap
// per iteration.
func TestCompactReleaseRecycles(t *testing.T) {
	evs := loopBatch(0, 0, 0, 200)
	grow := testing.AllocsPerRun(50, func() {
		col := NewCollector()
		col.Append(evs)
		_ = col.CompactStats()
		_ = col.Ordered()
		col.Release()
	})
	// A handful of fixed-size allocations per cycle (Collector struct,
	// maps, segment and batch headers) is fine; per-event growth is not.
	if grow > 40 {
		t.Errorf("release/new cycle allocates %.0f objects; pools not recycling", grow)
	}
}

// checkReadTrace requires ReadTrace to reject input only through
// *FormatError, never by panicking, with the error text a one-worker read
// gives, and every accepted input to read as at one worker and to survive
// a WriteTrace round trip with its ordered events intact.
func checkReadTrace(t *testing.T, input []byte) {
	// A valid file can describe more events than memory holds (a repeat
	// record expands without limit), so the harness, not the reader,
	// bounds the claimed total.
	if hdr, total, err := readTraceHeader(bufio.NewReader(bytes.NewReader(input)), new(bytes.Buffer)); err == nil {
		hdr.Release()
		if total > 1<<16 {
			t.Skip("claims more events than the harness decodes")
		}
	}
	col, err := ReadTrace(bytes.NewReader(input))
	var one *Collector
	var oneErr error
	atWorkers(1, func() { one, oneErr = ReadTrace(bytes.NewReader(input)) })
	if err != nil {
		var fe *FormatError
		if !errors.As(err, &fe) {
			t.Fatalf("rejected with %T %v, want *FormatError", err, err)
		}
		if oneErr == nil || oneErr.Error() != err.Error() {
			t.Fatalf("rejected with %v; one worker: %v", err, oneErr)
		}
		return
	}
	defer col.Release()
	if oneErr != nil {
		t.Fatalf("accepted; one worker rejected it with %v", oneErr)
	}
	defer one.Release()
	if one.Len() != col.Len() || one.CompactStats() != col.CompactStats() ||
		!reflect.DeepEqual(one.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
		t.Fatal("the read differs from a one-worker read")
	}
	var file bytes.Buffer
	if err := col.WriteTrace(&file); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTrace(&file)
	if err != nil {
		t.Fatalf("rewritten file rejected: %v", err)
	}
	defer back.Release()
	if !reflect.DeepEqual(back.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
		t.Fatal("ordered events diverge across the WriteTrace round trip")
	}
}

// FuzzReadCompactTrace fuzzes the binary reader from binary files: its
// seed corpus (testdata/fuzz/FuzzReadCompactTrace) holds files written
// from the test fixtures and the crafted inputs above, and every input
// must pass checkReadTrace.
func FuzzReadCompactTrace(f *testing.F) {
	f.Fuzz(checkReadTrace)
}

// FuzzReadTrace fuzzes ReadTrace from the textual traces and text lines
// that older builds read (testdata/fuzz/FuzzReadTrace): every input must
// pass checkReadTrace, and one that opens like a textual trace must be
// refused with the *FormatError that names the retired format.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		checkReadTrace(t, input)
		if !bytes.HasPrefix(input, []byte(legacyTextMagic)) {
			return
		}
		col, err := ReadTrace(bytes.NewReader(input))
		if col != nil || err == nil || !strings.Contains(err.Error(), "textual trace") {
			t.Fatalf("textual trace read as %v, %v; want the legacy-format error", col, err)
		}
	})
}

// refEncodeBlock is the repeat detector's reference: for every event it
// tries each period from 1 to maxPattern in turn, computing each match
// from scratch. encodeBlock must emit exactly its bytes.
func (e *encoder) refEncodeBlock(dst []byte, evs []Event) (out []byte, recs, reps int) {
	e.reset()
	var prevAt des.Time
	var prevRank, prevTid int32
	for i := 0; i < len(evs); {
		// Repeat detection: the smallest period with at least one full
		// extra copy wins (a period-P loop is caught at l == P; larger l
		// only splinters it).
		maxL := i
		if maxL > maxPattern {
			maxL = maxPattern
		}
		bestL, run := 0, 0
		for l := 1; l <= maxL; l++ {
			if !evEq(evs, i, i-l) {
				continue
			}
			if r := matchRun(evs, i, l); r >= l {
				bestL, run = l, r
				break
			}
		}
		if bestL > 0 {
			copies := run / bestL
			dst = append(dst, tagRepeat|byte(bestL))
			dst = binary.AppendUvarint(dst, uint64(copies))
			last := i + copies*bestL - 1
			prevAt = evs[last].At
			prevRank, prevTid = evs[last].Rank, evs[last].TID
			i += copies * bestL
			recs++
			reps++
			continue
		}

		ev := &evs[i]
		tag := byte(0)
		kindEsc := false
		if byte(ev.Kind) < tagKindEsc {
			tag |= byte(ev.Kind)
		} else {
			tag |= tagKindEsc
			kindEsc = true
		}
		hasAB := ev.A != 0 || ev.B != 0
		if hasAB {
			tag |= tagAB
		}
		lane := ev.Rank != prevRank || ev.TID != prevTid
		if lane {
			tag |= tagLane
		}
		newID := true
		var dictIdx uint64
		direct := ev.ID >= 0 && ev.ID < maxDirectID
		if direct {
			if int(ev.ID) >= len(e.idIdx) {
				grown := make([]int32, ev.ID+1)
				copy(grown, e.idIdx)
				e.idIdx = grown
			}
			if v := e.idIdx[ev.ID]; v != 0 {
				newID = false
				dictIdx = uint64(v - 1)
			}
		}
		if newID {
			tag |= tagNewID
		}
		dst = append(dst, tag)
		if kindEsc {
			dst = binary.AppendUvarint(dst, uint64(ev.Kind))
		}
		if newID {
			dst = binary.AppendVarint(dst, int64(ev.ID))
			if direct {
				e.idIdx[ev.ID] = int32(e.dictN) + 1
				e.assigned = append(e.assigned, ev.ID)
			}
			// Out-of-range ids still occupy a dictionary slot: the decoder
			// appends unconditionally, and indices must agree.
			e.dictN++
		} else {
			dst = binary.AppendUvarint(dst, dictIdx)
		}
		dst = binary.AppendVarint(dst, int64(ev.At-prevAt))
		if lane {
			dst = binary.AppendVarint(dst, int64(ev.Rank-prevRank))
			dst = binary.AppendVarint(dst, int64(ev.TID-prevTid))
			prevRank, prevTid = ev.Rank, ev.TID
		}
		if hasAB {
			dst = binary.AppendVarint(dst, ev.A)
			dst = binary.AppendVarint(dst, ev.B)
		}
		prevAt = ev.At
		recs++
		i++
	}
	return dst, recs, reps
}

// fuzzStream builds an event stream from fuzz bytes, read as a program of
// one-byte ops with one-byte operands: a fresh event from a small alphabet
// of tuples and time steps (so that chance repeats are common); an exact
// loop repeating the last p events c more times; a near repeat, the same
// with the time step of one copied event changed; and a run of p fresh
// events. Periods reach maxPattern+8, so both sides of the pattern bound
// are covered. Streams stop at 4*chunkEvents events.
func fuzzStream(prog []byte) []Event {
	var evs []Event
	var at des.Time
	next := func() int {
		if len(prog) == 0 {
			return 0
		}
		b := prog[0]
		prog = prog[1:]
		return int(b)
	}
	fresh := func(b int) {
		at += des.Time(b % 3)
		evs = append(evs, Event{
			At: at, Rank: int32(b >> 2 & 1), TID: int32(b >> 3 & 1),
			Kind: Kind(b >> 4 & 3), ID: int32(b >> 6), A: int64(b>>5) & 1,
		})
	}
	for len(prog) > 0 && len(evs) < 4*chunkEvents {
		switch op := next(); op % 4 {
		case 0:
			fresh(next())
		case 1, 2:
			p, copies := next()%(maxPattern+8)+1, next()%8+1
			if p > len(evs) {
				continue
			}
			skew := -1 // the copied event whose time step changes, if any
			if op%4 == 2 {
				skew = next() % (p * copies)
			}
			for k := 0; k < p*copies; k++ {
				src := len(evs) - p
				d := evs[src].At
				if src > 0 {
					d -= evs[src-1].At
				}
				if k == skew {
					d++
				}
				e := evs[src]
				at += d
				e.At = at
				evs = append(evs, e)
			}
		case 3:
			for p := next()%(maxPattern+8) + 1; p > 0; p-- {
				fresh(next())
			}
		}
	}
	return evs
}

// FuzzEncodeBlock requires encodeBlock to emit exactly refEncodeBlock's
// bytes and op counts. Each stream is encoded twice through the same
// encoders, whole and then its second half, so the second block also
// checks that nothing from the first leaks into its repeat detection.
func FuzzEncodeBlock(f *testing.F) {
	f.Add([]byte{0, 1, 0, 2, 0, 3, 1, 2, 7})
	f.Add([]byte{3, 63, 1, 5, 9, 13, 17, 21, 25, 29, 33, 37, 41, 45, 49, 53, 57, 61, 65, 69, 73, 1, 63, 3, 2, 63, 3, 100})
	f.Add([]byte{3, 71, 0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14, 15, 16, 17, 18, 19, 20, 21, 22, 23, 1, 64, 2, 1, 71, 2, 1, 65, 1})
	f.Add([]byte{0, 4, 0, 4, 0, 4, 2, 0, 7, 0, 1, 1, 7, 3, 10, 200, 13, 1, 2, 9, 2, 5, 3})
	f.Fuzz(func(t *testing.T, prog []byte) {
		evs := fuzzStream(prog)
		var fast, ref encoder
		for _, block := range [][]Event{evs, evs[len(evs)/2:]} {
			got, grecs, greps := fast.encodeBlock(nil, block)
			want, wrecs, wreps := ref.refEncodeBlock(nil, block)
			if !bytes.Equal(got, want) || grecs != wrecs || greps != wreps {
				t.Fatalf("%d events: encodeBlock %d bytes, %d records, %d repeats; reference %d, %d, %d",
					len(block), len(got), grecs, greps, len(want), wrecs, wreps)
			}
		}
	})
}
