package exp

import (
	"bytes"
	"crypto/sha256"
	"math"
	"testing"

	"dynprof/internal/des"
)

// adaptFigureHash renders the adapt figure at the given parallelism and
// returns the sha256 of its Render+CSV bytes.
func adaptFigureHash(t *testing.T, parallelism int) [32]byte {
	t.Helper()
	fig, err := NewRunner(Options{Parallelism: parallelism}).Figure("adapt")
	if err != nil {
		t.Fatalf("adapt figure (parallelism %d): %v", parallelism, err)
	}
	if len(fig.Failures) > 0 {
		t.Fatalf("adapt figure (parallelism %d) has %d failed cells: %+v",
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

// TestAdaptFigureDeterminism: the adapt sweep's rendered bytes must be
// identical at host parallelism 1 and 8 — controller decisions, epoch
// accounting and assembly are all deterministic.
func TestAdaptFigureDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("adapt figure sweep skipped in -short mode")
	}
	seq := adaptFigureHash(t, 1)
	par := adaptFigureHash(t, 8)
	if seq != par {
		t.Fatalf("adapt figure bytes differ between parallelism 1 (%x) and 8 (%x)", seq, par)
	}
}

// TestAdaptConvergence: on fully instrumented smg98 with a 5%% budget, the
// achieved removable overhead must land within ±1 percentage point of the
// budget, with a nonzero retained-event fraction.
func TestAdaptConvergence(t *testing.T) {
	res, err := runAdaptCell(AdaptSpec{App: "smg98", Budget: 0.05, Seed: DefaultSeed}, des.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(res.Achieved-0.05) > 0.01 {
		t.Errorf("achieved overhead %.4f not within ±0.01 of budget 0.05", res.Achieved)
	}
	if res.Retained <= 0 {
		t.Errorf("retained-event fraction %.4f, want > 0", res.Retained)
	}
	if res.Deactivated == 0 {
		t.Errorf("controller deactivated nothing; smg98/Full starts far over a 5%% budget")
	}
	if res.Epochs < 10 {
		t.Errorf("only %d epochs measured; the adapt deck should sustain ≥ 10", res.Epochs)
	}
}

// TestAdaptAllKernels is the acceptance sweep: with budget 5%% every
// kernel's measured perturbation converges to ≤ 6%% while a nonzero event
// fraction is retained.
func TestAdaptAllKernels(t *testing.T) {
	if testing.Short() {
		t.Skip("four-kernel adapt sweep skipped in -short mode")
	}
	for _, app := range []string{"smg98", "sppm", "sweep3d", "umt98"} {
		res, err := runAdaptCell(AdaptSpec{App: app, Budget: 0.05, Seed: DefaultSeed}, des.Budget{}, nil)
		if err != nil {
			t.Fatalf("%s: %v", app, err)
		}
		if res.Achieved > 0.06 {
			t.Errorf("%s: achieved overhead %.4f > 0.06", app, res.Achieved)
		}
		if res.Retained <= 0 || res.Events == 0 {
			t.Errorf("%s: retained %.4f events %d, want both nonzero", app, res.Retained, res.Events)
		}
		if res.ActiveProbes == 0 {
			t.Errorf("%s: every probe deactivated; expected partial retention", app)
		}
	}
}

// TestAdaptSpecKey: zero fields normalise before keying, so a zero spec
// and an explicit-default spec share one cell.
func TestAdaptSpecKey(t *testing.T) {
	zero := AdaptSpec{App: "smg98"}
	full := AdaptSpec{App: "smg98", Budget: DefaultAdaptBudget, CPUs: DefaultAdaptCPUs}
	if zero.Key() != full.Key() {
		t.Fatalf("zero-spec key %q != explicit-default key %q", zero.Key(), full.Key())
	}
}

// TestStaticPolicyKeys: static policy keys are the Table 3 names
// byte-for-byte, so RunSpec keys (and journals) stay stable; the zero
// Policy means Full.
func TestStaticPolicyKeys(t *testing.T) {
	for p, want := range map[StaticPolicy]string{
		Full: "Full", FullOff: "Full-Off", Subset: "Subset", None: "None", Dynamic: "Dynamic",
	} {
		if p.Key() != want || p.String() != want {
			t.Errorf("policy %q: Key=%q String=%q, want %q", string(p), p.Key(), p.String(), want)
		}
	}
	withZero := RunSpec{App: "smg98", CPUs: 4}
	withFull := RunSpec{App: "smg98", Policy: Full, CPUs: 4}
	if withZero.Key() != withFull.Key() {
		t.Errorf("zero-policy key %q != Full key %q", withZero.Key(), withFull.Key())
	}
}

// TestApplyChangesUnknownFunc: the controller-facing fix — a change batch
// naming an unknown function is rejected atomically with a typed error
// instead of being silently absorbed.
func TestApplyChangesUnknownFunc(t *testing.T) {
	res, err := runAdaptCell(AdaptSpec{App: "smg98", Budget: 0.05, Seed: DefaultSeed}, des.Budget{}, nil)
	if err != nil {
		t.Fatal(err)
	}
	// The adaptive run only ever emits changes for registered functions,
	// so its fault stream must not contain confsync rejections.
	for _, f := range res.Faults {
		if f.Detail != "" && bytes.Contains([]byte(f.Detail), []byte("unknown functions")) {
			t.Errorf("adaptive run produced a rejected change batch: %+v", f)
		}
	}
}
