package exp

import (
	"bytes"
	"crypto/sha256"
	"testing"

	"dynprof/internal/des"
)

// TestRecoverCell pins one recover cell's physics: every scheduled crash
// restarts, ledgers replay, reconvergence latency is positive and bounded,
// the crash windows cost a measurable but small fraction of trace events,
// and co-tenant latency does not regress by more than the recovery
// traffic can explain.
func TestRecoverCell(t *testing.T) {
	res, err := runRecoverCell(RecoverSpec{MTBF: 5 * des.Second, Seed: DefaultSeed}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Crashes == 0 || res.Crashes != res.Restarts {
		t.Errorf("crashes=%d restarts=%d, want equal and nonzero", res.Crashes, res.Restarts)
	}
	if res.Replays == 0 || res.Recoveries == 0 {
		t.Errorf("replays=%d recoveries=%d, want both nonzero", res.Replays, res.Recoveries)
	}
	if res.ReconvergeP50 <= 0 || res.ReconvergeP95 < res.ReconvergeP50 {
		t.Errorf("reconvergence p50=%v p95=%v", res.ReconvergeP50, res.ReconvergeP95)
	}
	if res.ReconvergeP95 > 5*des.Second {
		t.Errorf("reconvergence p95=%v, want under one MTBF", res.ReconvergeP95)
	}
	if res.LostFrac <= 0 || res.LostFrac > 0.5 {
		t.Errorf("lost-event fraction %.4f, want in (0, 0.5]", res.LostFrac)
	}
	if res.CoTenantP95 < 1 || res.CoTenantP95 > 100 {
		t.Errorf("co-tenant p95 ratio %.3f, want >= 1 and sane", res.CoTenantP95)
	}
	if res.Drops == 0 || res.Retries == 0 {
		t.Errorf("drops=%d retries=%d, want both nonzero under 10%% loss", res.Drops, res.Retries)
	}
	if res.Evicted > res.Sessions/10 {
		t.Errorf("evicted=%d of %d sessions, want under 10%%", res.Evicted, res.Sessions)
	}
}

// recoverFigureHash renders the recover figure at the given parallelism
// and returns the sha256 of its Render+CSV bytes.
func recoverFigureHash(t *testing.T, parallelism int) [32]byte {
	t.Helper()
	fig, err := NewRunner(Options{Parallelism: parallelism}).Figure("recover")
	if err != nil {
		t.Fatalf("recover figure (parallelism %d): %v", parallelism, err)
	}
	if len(fig.Failures) > 0 {
		t.Fatalf("recover figure (parallelism %d) has %d failed cells: %+v",
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

// TestRecoverFigureDeterminism: the recover sweep's rendered bytes must be
// identical at host parallelism 1 and 8 — crash schedules, replay
// accounting, and the fault-free twin comparison are all deterministic.
func TestRecoverFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("recover figure sweep skipped in -short mode")
	}
	seq := recoverFigureHash(t, 1)
	par := recoverFigureHash(t, 8)
	if seq != par {
		t.Fatalf("recover figure bytes differ between parallelism 1 (%x) and 8 (%x)", seq, par)
	}
}

// TestRecoverStoreRoundTrip: RecoverResult survives the JSONL journal.
func TestRecoverStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := RecoverResult{Sessions: 64, Crashes: 80, Restarts: 80, Replays: 300,
		Recoveries: 280, ReconvergeP50: 40 * des.Millisecond, LostFrac: 0.02,
		CoTenantP95: 1.3, Elapsed: 31 * des.Second, Events: 12345}
	if err := st.Put("recover|test", want); err != nil {
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
	got, ok := storedAs[RecoverResult](t, st2, "recover|test")
	if !ok {
		t.Fatal("record not found after reopen")
	}
	res := got.(RecoverResult)
	if res.Crashes != want.Crashes || res.ReconvergeP50 != want.ReconvergeP50 ||
		res.LostFrac != want.LostFrac || res.Events != want.Events {
		t.Errorf("round-trip mismatch: got %+v want %+v", res, want)
	}
}
