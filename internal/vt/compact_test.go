package vt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"reflect"
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

// writeCompact returns col's binary trace file.
func writeCompact(t *testing.T, col *Collector) []byte {
	t.Helper()
	var file bytes.Buffer
	if err := col.WriteCompactTrace(&file); err != nil {
		t.Fatal(err)
	}
	return file.Bytes()
}

// TestCompactCollectorMatchesVerbatim round-trips interleaved batches
// through the binary trace file and requires the decoded collector to
// reproduce the source's merged view, length, textual trace and encoding
// counters.
func TestCompactCollectorMatchesVerbatim(t *testing.T) {
	plain := NewCollector()
	defer plain.Release()
	fillBatches(plain, 20, 50)
	plain.Append(loopBatch(0, 0, 1000, 50))
	plain.Append(loopBatch(1, 1, 980, 50))
	back, err := ReadCompactTrace(bytes.NewReader(writeCompact(t, plain)))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if plain.Len() != back.Len() || plain.Bytes() != back.Bytes() {
		t.Fatalf("Len/Bytes diverge: %d/%d vs %d/%d", plain.Len(), plain.Bytes(), back.Len(), back.Bytes())
	}
	if !reflect.DeepEqual(plain.Ordered().AppendTo(nil), back.Ordered().AppendTo(nil)) {
		t.Fatal("merged views diverge across the binary round trip")
	}
	var pw, cw bytes.Buffer
	if err := plain.WriteTrace(&pw); err != nil {
		t.Fatal(err)
	}
	if err := back.WriteTrace(&cw); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(pw.Bytes(), cw.Bytes()) {
		t.Fatal("textual traces diverge across the binary round trip")
	}
	st := plain.CompactStats()
	if st.EventsIn != plain.Len() || st.Records == 0 || st.Repeats == 0 {
		t.Errorf("inconsistent stats: %+v (len %d)", st, plain.Len())
	}
	if st.Bytes >= plain.Bytes() {
		t.Errorf("compact bytes %d not below verbatim %d", st.Bytes, plain.Bytes())
	}
	if got := back.CompactStats(); got != st {
		t.Errorf("decoded collector's stats %+v, source's %+v", got, st)
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

// TestCompactTraceFileRoundTrip writes a binary trace file from an
// Appended collector ("verbatim") and from one read back from such a file
// ("compact"). Reading the file back must reproduce the textual trace, and
// writing the read-back collector again must reproduce the file byte for
// byte.
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
			back, err := ReadCompactTrace(bytes.NewReader(writeCompact(t, col)))
			if err != nil {
				t.Fatal(err)
			}
			return back
		}},
	} {
		t.Run(src.name, func(t *testing.T) {
			col := src.mk()
			defer col.Release()
			var want bytes.Buffer
			if err := col.WriteTrace(&want); err != nil {
				t.Fatal(err)
			}
			file := writeCompact(t, col)
			if len(file) >= want.Len() {
				t.Errorf("compact file %d bytes not below textual %d", len(file), want.Len())
			}
			back, err := ReadTraceAuto(bytes.NewReader(file))
			if err != nil {
				t.Fatal(err)
			}
			defer back.Release()
			var got bytes.Buffer
			if err := back.WriteTrace(&got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want.Bytes()) {
				t.Fatal("trace read back from compact file diverges from the source")
			}
			if !bytes.Equal(writeCompact(t, back), file) {
				t.Fatal("rewriting the read-back collector does not reproduce the file")
			}
		})
	}
}

// TestCompactTraceFileSpilledSource: a spilling collector's file — spilled
// frames copied from disk, resident batches encoded at write time — is
// byte-identical to a resident collector's fed the same batches.
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
	file := writeCompact(t, col)
	if !bytes.Equal(file, writeCompact(t, plain)) {
		t.Fatal("spilled source's file diverges from the resident source's")
	}
	var want bytes.Buffer
	if err := col.WriteTrace(&want); err != nil {
		t.Fatal(err)
	}
	back, err := ReadCompactTrace(bytes.NewReader(file))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	var got bytes.Buffer
	if err := back.WriteTrace(&got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("trace read back from a spilled source diverges")
	}
}

func TestCompactTraceRejectsUnknownVersion(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillBatches(col, 2, 10)
	raw := writeCompact(t, col)
	raw[4] = 99
	var fe *FormatError
	if _, err := ReadCompactTrace(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Fatalf("got %v, want *FormatError", err)
	} else if fe.Version != 99 {
		t.Fatalf("reported version %d, want 99", fe.Version)
	}
	if _, err := ReadTraceAuto(bytes.NewReader(raw)); !errors.As(err, &fe) {
		t.Fatalf("ReadTraceAuto: got %v, want *FormatError", err)
	}
}

// craftedTraces are binary trace files that once crashed or hung the
// reader; each must be rejected with *FormatError.
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
		if _, err := ReadTraceAuto(bytes.NewReader(raw)); !errors.As(err, &fe) {
			t.Errorf("%s: got %v, want *FormatError", name, err)
		}
	}
}

func TestReadTraceAutoTextual(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	fillBatches(col, 3, 10)
	var text bytes.Buffer
	if err := col.WriteTrace(&text); err != nil {
		t.Fatal(err)
	}
	back, err := ReadTraceAuto(bytes.NewReader(text.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	defer back.Release()
	if !reflect.DeepEqual(back.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
		t.Fatal("textual auto-read diverges")
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

// FuzzReadCompactTrace requires the binary trace reader to reject bad
// input only through *FormatError, never by panicking, and every accepted
// input to survive a WriteCompactTrace round trip with its Events intact.
// The seed corpus (testdata/fuzz/FuzzReadCompactTrace) holds files written
// from the test fixtures plus the crafted inputs above.
func FuzzReadCompactTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		// A valid file can describe more events than memory holds (a
		// repeat record expands without limit), so the harness, not the
		// reader, bounds the claimed total.
		if _, total, err := readCompactHeader(bufio.NewReader(bytes.NewReader(input))); err == nil && total > 1<<16 {
			t.Skip("claims more events than the harness decodes")
		}
		col, err := ReadCompactTrace(bytes.NewReader(input))
		if err != nil {
			var fe *FormatError
			if !errors.As(err, &fe) {
				t.Fatalf("rejected with %T %v, want *FormatError", err, err)
			}
			return
		}
		defer col.Release()
		var file bytes.Buffer
		if err := col.WriteCompactTrace(&file); err != nil {
			t.Fatal(err)
		}
		back, err := ReadCompactTrace(&file)
		if err != nil {
			t.Fatalf("rewritten file rejected: %v", err)
		}
		defer back.Release()
		if !reflect.DeepEqual(back.Ordered().AppendTo(nil), col.Ordered().AppendTo(nil)) {
			t.Fatal("Events diverge across the WriteCompactTrace round trip")
		}
	})
}
