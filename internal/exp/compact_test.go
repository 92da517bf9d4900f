package exp

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// TestCompactSpecKey pins the canonical key: defaults resolved, every
// discriminating field present.
func TestCompactSpecKey(t *testing.T) {
	k := CompactSpec{App: "sweep3d"}.Key()
	want := "compact|sweep3d|procs=4|IBM Power3 SMP cluster (Colony)|seed=0|args{iters=1 nx=64 ny=4 nz=4}"
	if k != want {
		t.Errorf("key = %q, want %q", k, want)
	}
}

// TestCompactCell runs one kernel and pins the suppression contract: the
// verbatim volume is EventBytes per event, the encoding is >= 5x smaller,
// and repeat records actually fire.
func TestCompactCell(t *testing.T) {
	res, err := runCompactCell(CompactSpec{App: "sweep3d"}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.TraceEvents == 0 || res.TraceBytes != res.TraceEvents*vt.EventBytes {
		t.Fatalf("verbatim volume %d bytes for %d events", res.TraceBytes, res.TraceEvents)
	}
	if res.Records == 0 || res.Repeats == 0 {
		t.Errorf("compact encoding found no redundancy: %+v", res)
	}
	verbatim, compact := res.BytesPerEvent(false), res.BytesPerEvent(true)
	if ratio := verbatim / compact; ratio < 5 {
		t.Errorf("suppression ratio %.2fx on sweep3d, want >= 5x (%.2f vs %.2f bytes/event)",
			ratio, verbatim, compact)
	}
}

// compactFigureHash renders the compact figure at the given parallelism
// and returns the sha256 of its Render+CSV bytes.
func compactFigureHash(t *testing.T, parallelism int) [32]byte {
	t.Helper()
	fig, err := NewRunner(Options{Parallelism: parallelism}).Figure("compact")
	if err != nil {
		t.Fatalf("compact figure (parallelism %d): %v", parallelism, err)
	}
	if len(fig.Failures) > 0 {
		t.Fatalf("compact figure (parallelism %d) has %d failed cells: %+v",
			parallelism, len(fig.Failures), fig.Failures[0])
	}
	var buf bytes.Buffer
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if err := fig.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	return sha256.Sum256(buf.Bytes())
}

// TestCompactFigureDeterminism: the compact figure's rendered bytes must
// be identical at host parallelism 1 and 8 — encoded sizes are a pure
// function of the simulated event stream, never of host timing.
func TestCompactFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("compact figure sweep skipped in -short mode")
	}
	seq := compactFigureHash(t, 1)
	par := compactFigureHash(t, 8)
	if seq != par {
		t.Fatalf("compact figure bytes differ between parallelism 1 (%x) and 8 (%x)", seq, par)
	}
}

// TestCompactStoreRoundTrip: CompactResult survives the JSONL journal.
func TestCompactStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := CompactResult{App: "umt98", Elapsed: 7 * des.Second,
		TraceEvents: 40000, TraceBytes: 960000, EncodedBytes: 5200, Records: 900, Repeats: 310}
	if err := st.Put("compact|test", want); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	got, ok := storedAs[CompactResult](t, st2, "compact|test")
	if !ok {
		t.Fatal("record not found after reopen")
	}
	if res := got.(CompactResult); res != want {
		t.Errorf("round-trip mismatch: got %+v want %+v", res, want)
	}
}
