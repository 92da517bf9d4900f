package exp

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/machine"
)

// renderAll renders a figure set as text and CSV through one Runner.
func renderAll(t *testing.T, opts Options, ids ...string) (text, csv string, m Metrics) {
	t.Helper()
	r := NewRunner(opts)
	figs, err := r.Figures(ids...)
	if err != nil {
		t.Fatal(err)
	}
	var tb, cb bytes.Buffer
	for _, f := range figs {
		if err := f.Render(&tb); err != nil {
			t.Fatal(err)
		}
		if err := f.CSV(&cb); err != nil {
			t.Fatal(err)
		}
	}
	return tb.String(), cb.String(), r.Metrics()
}

// TestParallelDeterminism: the same figure set rendered at Parallelism 1
// and Parallelism 8 must be byte-identical, text and CSV.
func TestParallelDeterminism(t *testing.T) {
	ids := []string{"fig7a", "fig8a", "hybrid"}
	seqText, seqCSV, seqM := renderAll(t, Options{MaxCPUs: 4, Parallelism: 1}, ids...)
	parText, parCSV, parM := renderAll(t, Options{MaxCPUs: 4, Parallelism: 8}, ids...)
	if seqText != parText {
		t.Errorf("text output differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqText, parText)
	}
	if seqCSV != parCSV {
		t.Errorf("CSV output differs between Parallelism 1 and 8:\n--- seq ---\n%s\n--- par ---\n%s", seqCSV, parCSV)
	}
	if seqM.Runs != parM.Runs || seqM.Cells != parM.Cells {
		t.Errorf("metrics differ: seq %+v vs par %+v", seqM, parM)
	}
	if seqM.Runs == 0 || seqM.Virtual <= 0 {
		t.Errorf("metrics not populated: %+v", seqM)
	}
}

// TestParallelDeterministicEvents: the OnCell stream is emitted in the
// same deterministic order at any parallelism.
func TestParallelDeterministicEvents(t *testing.T) {
	stream := func(parallelism int) []CellEvent {
		var mu sync.Mutex
		var evs []CellEvent
		r := NewRunner(Options{MaxCPUs: 4, Parallelism: parallelism,
			OnCell: func(ev CellEvent) { mu.Lock(); evs = append(evs, ev); mu.Unlock() }})
		if _, err := r.Figures("fig7d", "fig8a"); err != nil {
			t.Fatal(err)
		}
		return evs
	}
	seq, par := stream(1), stream(8)
	if len(seq) == 0 || len(seq) != len(par) {
		t.Fatalf("event streams differ in length: %d vs %d", len(seq), len(par))
	}
	for i := range seq {
		a, b := seq[i], par[i]
		if a.Figure != b.Figure || a.Series != b.Series || a.CPUs != b.CPUs ||
			a.Key != b.Key || a.Value != b.Value || a.CacheHit != b.CacheHit {
			t.Errorf("event %d differs: %+v vs %+v", i, a, b)
		}
	}
}

// TestCellCacheDedup: a spec shared between two figures runs exactly
// once; the second figure's cells are all cache hits, and the figures
// render identically.
func TestCellCacheDedup(t *testing.T) {
	var evs []CellEvent
	r := NewRunner(Options{MaxCPUs: 2, Parallelism: 4,
		OnCell: func(ev CellEvent) { evs = append(evs, ev) }})
	figs, err := r.Figures("fig8a", "fig8a")
	if err != nil {
		t.Fatal(err)
	}
	m := r.Metrics()
	if m.Cells != 2*m.Runs {
		t.Errorf("cells=%d runs=%d: every cell is shared, want cells = 2*runs", m.Cells, m.Runs)
	}
	if m.CacheHits != m.Cells-m.Runs {
		t.Errorf("cache hits %d, want %d", m.CacheHits, m.Cells-m.Runs)
	}
	// Per-key: exactly one fresh execution, the rest cache hits.
	fresh := map[string]int{}
	for _, ev := range evs {
		if !ev.CacheHit {
			fresh[ev.Key]++
		}
	}
	for k, n := range fresh {
		if n != 1 {
			t.Errorf("spec %q executed %d times, want exactly 1", k, n)
		}
	}
	if len(fresh) != m.Runs {
		t.Errorf("%d fresh keys vs %d runs", len(fresh), m.Runs)
	}
	var a, b bytes.Buffer
	if err := figs[0].Render(&a); err != nil {
		t.Fatal(err)
	}
	if err := figs[1].Render(&b); err != nil {
		t.Fatal(err)
	}
	if a.String() != b.String() {
		t.Error("shared-spec figures rendered differently")
	}
}

// TestRunnerMemoAcrossCalls: Runner.Run serves a repeated spec from the
// cache, and a Figures call reuses cells a prior Run already executed.
func TestRunnerMemoAcrossCalls(t *testing.T) {
	r := NewRunner(Options{})
	spec := RunSpec{App: "umt98", Policy: None, CPUs: 2, Seed: DefaultSeed}
	first, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	again, err := r.Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(first, again) {
		t.Errorf("memoized result differs: %+v vs %+v", first, again)
	}
	m := r.Metrics()
	if m.Runs != 1 || m.CacheHits != 1 {
		t.Errorf("runs=%d hits=%d, want 1/1", m.Runs, m.CacheHits)
	}
}

// TestSeedZeroRequestable: Options.SeedSet makes seed 0 an explicit
// request rather than the DefaultSeed sentinel.
func TestSeedZeroRequestable(t *testing.T) {
	if got := (Options{}).seed(); got != DefaultSeed {
		t.Errorf("zero Options seed = %d, want DefaultSeed %d", got, DefaultSeed)
	}
	if got := (Options{Seed: 0, SeedSet: true}).seed(); got != 0 {
		t.Errorf("explicit seed 0 resolved to %d", got)
	}
	if got := (Options{Seed: 7}).seed(); got != 7 {
		t.Errorf("seed 7 resolved to %d", got)
	}
	// Seed 0 must drive a genuinely different simulation than the
	// default. A Dynamic run consumes the scheduler RNG via daemon
	// jitter, so its instrumentation time is seed-sensitive.
	spec := RunSpec{App: "umt98", Policy: Dynamic, CPUs: 2, Args: fig9Args["umt98"], Seed: 0}
	z, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	spec.Seed = DefaultSeed
	d, err := Run(spec)
	if err != nil {
		t.Fatal(err)
	}
	if z.CreateAndInstrument == d.CreateAndInstrument {
		t.Errorf("seed 0 and seed %d produced identical instrument times (%v); seed not plumbed through",
			DefaultSeed, z.CreateAndInstrument)
	}
}

// TestSpecKeys: keys canonicalise defaults and distinguish everything
// that changes a run.
func TestSpecKeys(t *testing.T) {
	base := RunSpec{App: "smg98", Policy: Full, CPUs: 4, Seed: DefaultSeed}
	if base.Key() != (RunSpec{App: "smg98", Policy: Full, CPUs: 4, Machine: machine.MustNew("ibm-power3"), Seed: DefaultSeed}).Key() {
		t.Error("nil machine and explicit IBM preset must share a key")
	}
	for name, other := range map[string]RunSpec{
		"policy":  {App: "smg98", Policy: None, CPUs: 4, Seed: DefaultSeed},
		"cpus":    {App: "smg98", Policy: Full, CPUs: 8, Seed: DefaultSeed},
		"seed":    {App: "smg98", Policy: Full, CPUs: 4, Seed: 7},
		"args":    {App: "smg98", Policy: Full, CPUs: 4, Args: map[string]int{"nx": 6}, Seed: DefaultSeed},
		"machine": {App: "smg98", Policy: Full, CPUs: 4, Machine: machine.MustNew("ia32-linux"), Seed: DefaultSeed},
	} {
		if other.Key() == base.Key() {
			t.Errorf("%s change did not change the key %q", name, base.Key())
		}
	}
	// Args render in sorted order regardless of map iteration.
	a := RunSpec{App: "smg98", Policy: Full, CPUs: 4, Args: map[string]int{"nx": 1, "ny": 2, "nz": 3}}
	if !strings.Contains(a.Key(), "args{nx=1 ny=2 nz=3}") {
		t.Errorf("args not canonicalised: %q", a.Key())
	}
	// ConfSync defaults resolve before keying.
	if (ConfSyncSpec{CPUs: 8}).Key() != (ConfSyncSpec{CPUs: 8, Machine: machine.MustNew("ibm-power3")}).Key() {
		t.Error("ConfSyncSpec zero values and explicit defaults must share a key")
	}
	if (ConfSyncSpec{CPUs: 8}).Key() == (ConfSyncSpec{CPUs: 8, WriteStats: true}).Key() {
		t.Error("WriteStats must change the ConfSync key")
	}
	// Hybrid defaults resolve before keying.
	if (HybridSpec{}).Key() != (HybridSpec{CPUs: 4}).Key() {
		t.Error("HybridSpec zero CPUs and explicit 4 must share a key")
	}
}

// TestConfSyncSpecDefaults: the zero spec resolves to the documented
// canonical arguments (the IBM machine) — spelling them out explicitly
// must not change the run. Seed is used as given, not defaulted, so the
// explicit spec spells out the zero spec's seed 0 and the test checks the
// defaults alone.
func TestConfSyncSpecDefaults(t *testing.T) {
	viaSpec, err := runConfSyncCell(ConfSyncSpec{CPUs: 4}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	explicit, err := runConfSyncCell(ConfSyncSpec{
		CPUs: 4, Machine: machine.MustNew("ibm-power3"), Seed: 0,
	}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if viaSpec.Mean != explicit.Mean {
		t.Errorf("spec defaults %v != explicit canonical arguments %v", viaSpec.Mean, explicit.Mean)
	}
}

// TestRunnerUnknownFigure: a bad figure ID fails with the known set.
func TestRunnerUnknownFigure(t *testing.T) {
	_, err := NewRunner(Options{}).Figure("fig42")
	if err == nil || !strings.Contains(err.Error(), "fig42") {
		t.Errorf("want unknown-figure error naming fig42, got %v", err)
	}
}

// TestUtilizationZeroGuard: Utilization never divides by zero — a Runner
// that has not executed a pool (zero Workers, e.g. everything served from
// cache or store) or has spent no wall time reports 0, and the ratio is
// clamped to 1.
func TestUtilizationZeroGuard(t *testing.T) {
	cases := []struct {
		name string
		m    Metrics
		want float64
	}{
		{"zero metrics", Metrics{}, 0},
		{"zero workers (all cached)", Metrics{Busy: time.Second, Wall: time.Second}, 0},
		{"zero wall", Metrics{Busy: time.Second, Workers: 4}, 0},
		{"half busy", Metrics{Busy: time.Second, Wall: 2 * time.Second, Workers: 1}, 0.5},
		{"clamped", Metrics{Busy: 3 * time.Second, Wall: time.Second, Workers: 2}, 1},
	}
	for _, tc := range cases {
		if got := tc.m.Utilization(); got != tc.want {
			t.Errorf("%s: Utilization = %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestHybridFigureShape: the hybrid figure carries both variants and the
// confsync-points runs stay close to plain (the Section 5.1 claim).
func TestHybridFigureShape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 4}).Figure("hybrid")
	if err != nil {
		t.Fatal(err)
	}
	plain, ok1 := fig.At("plain", 4)
	points, ok2 := fig.At("confsync-points", 4)
	if !ok1 || !ok2 {
		t.Fatalf("hybrid figure missing points: %+v", fig)
	}
	if r := points / plain; r < 0.99 || r > 1.5 {
		t.Errorf("confsync-points/plain = %.3f, want modest overhead", r)
	}
}
