package exp

import (
	"bytes"
	"strings"
	"testing"

	"dynprof/internal/apps"
)

func TestPolicyTable3(t *testing.T) {
	if len(AllPolicies()) != 5 {
		t.Fatalf("Table 3 has 5 policies, got %d", len(AllPolicies()))
	}
	for _, p := range AllPolicies() {
		if p.String() == "" || p.Description() == "" {
			t.Fatalf("policy %q lacks a name or description", string(p))
		}
	}
	smg, _ := apps.Get("smg98")
	if got := len(PoliciesFor(smg)); got != 5 {
		t.Fatalf("smg98 evaluates %d policies", got)
	}
	sweep, _ := apps.Get("sweep3d")
	for _, p := range PoliciesFor(sweep) {
		if p == Subset {
			t.Fatal("sweep3d must have no Subset version (paper: unnecessary)")
		}
	}
}

func TestFig7aShape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 8}).Figure("fig7a")
	if err != nil {
		t.Fatal(err)
	}
	if len(fig.Series) != 5 {
		t.Fatalf("fig7a has %d series", len(fig.Series))
	}
	for _, cpus := range []int{1, 2, 4, 8} {
		full, _ := fig.At("Full", cpus)
		fullOff, _ := fig.At("Full-Off", cpus)
		subset, _ := fig.At("Subset", cpus)
		none, _ := fig.At("None", cpus)
		dynamic, _ := fig.At("Dynamic", cpus)
		// "Statically inserting instrumentation in all functions leads to
		// significant run-time overhead" — several-fold.
		if full/none < 3 {
			t.Errorf("cpus=%d: Full/None = %.2f, want >= 3", cpus, full/none)
		}
		// "The overhead did decrease, but it was still large."
		if !(fullOff < full) || fullOff/none < 1.3 {
			t.Errorf("cpus=%d: Full-Off %.3f vs Full %.3f None %.3f", cpus, fullOff, full, none)
		}
		// "The overhead was approximately equal to the Full-Off version."
		if r := subset / fullOff; r < 0.7 || r > 1.3 {
			t.Errorf("cpus=%d: Subset/Full-Off = %.2f, want ~1", cpus, r)
		}
		// "The Dynamic version ... sees an execution time that is very
		// close to None."
		if r := dynamic / none; r < 0.95 || r > 1.15 {
			t.Errorf("cpus=%d: Dynamic/None = %.2f, want ~1", cpus, r)
		}
	}
	// Weak scaling: the None curve grows with the CPU count.
	n1, _ := fig.At("None", 1)
	n8, _ := fig.At("None", 8)
	if !(n8 > n1) {
		t.Errorf("smg98 None: %v at 1 CPU vs %v at 8; weak scaling should grow", n1, n8)
	}
}

func TestFig7bShape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 4}).Figure("fig7b")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := fig.At("Full", 4)
	none, _ := fig.At("None", 4)
	dynamic, _ := fig.At("Dynamic", 4)
	ratio := full / none
	// "The difference is not as extreme" as Smg98's.
	if ratio < 1.2 || ratio > 4 {
		t.Errorf("sppm Full/None = %.2f, want moderate overhead", ratio)
	}
	if r := dynamic / none; r < 0.95 || r > 1.15 {
		t.Errorf("sppm Dynamic/None = %.2f, want ~1", r)
	}
}

func TestFig7cShape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 8}).Figure("fig7c")
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := fig.At("Full", 1); ok {
		t.Error("sweep3d must have no 1-CPU data point")
	}
	for _, cpus := range []int{2, 4, 8} {
		full, _ := fig.At("Full", cpus)
		none, _ := fig.At("None", cpus)
		dynamic, _ := fig.At("Dynamic", cpus)
		// "The Full and None instrumentation policies of Sweep3d have
		// comparable performance."
		if r := full / none; r > 1.1 {
			t.Errorf("cpus=%d: sweep3d Full/None = %.3f, want negligible", cpus, r)
		}
		if r := dynamic / none; r > 1.1 {
			t.Errorf("cpus=%d: sweep3d Dynamic/None = %.3f", cpus, r)
		}
	}
	// Strong scaling: time decreases with more CPUs.
	n2, _ := fig.At("None", 2)
	n8, _ := fig.At("None", 8)
	if !(n8 < n2) {
		t.Errorf("sweep3d None: %v at 2 CPUs vs %v at 8; strong scaling should shrink", n2, n8)
	}
}

func TestFig7dShape(t *testing.T) {
	fig, err := NewRunner(Options{}).Figure("fig7d")
	if err != nil {
		t.Fatal(err)
	}
	full, _ := fig.At("Full", 4)
	none, _ := fig.At("None", 4)
	dynamic, _ := fig.At("Dynamic", 4)
	// "Not as significant as with Smg98 and Sppm ... still a noticeable
	// benefit from dynamic instrumentation."
	if r := full / none; r < 1.05 || r > 3 {
		t.Errorf("umt98 Full/None = %.2f, want small-but-noticeable", r)
	}
	if r := dynamic / none; r > 1.15 {
		t.Errorf("umt98 Dynamic/None = %.2f", r)
	}
	n1, _ := fig.At("None", 1)
	n8, _ := fig.At("None", 8)
	if !(n8 < n1) {
		t.Errorf("umt98 strong scaling broken: %v at 1 vs %v at 8", n1, n8)
	}
}

func TestFig8aShape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 64}).Figure("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fig.Series {
		for _, p := range s.Points {
			// "The overhead is less than 0.04 seconds" in either case.
			if p.Value <= 0 || p.Value > 0.04 {
				t.Errorf("%s at %d CPUs: %.4fs outside (0, 0.04]", s.Label, p.CPUs, p.Value)
			}
		}
	}
	// Cost grows (slowly) with the processor count.
	lo, _ := fig.At("No Change", 2)
	hi, _ := fig.At("No Change", 64)
	if !(hi > lo) {
		t.Errorf("confsync cost flat: %v at 2 vs %v at 64", lo, hi)
	}
}

func TestFig8bOrderOfMagnitudeLarger(t *testing.T) {
	a, err := NewRunner(Options{MaxCPUs: 32}).Figure("fig8a")
	if err != nil {
		t.Fatal(err)
	}
	b, err := NewRunner(Options{MaxCPUs: 32}).Figure("fig8b")
	if err != nil {
		t.Fatal(err)
	}
	av, _ := a.At("No Change", 32)
	bv, _ := b.At("Statistics", 32)
	// "The costs are an order of magnitude larger than those seen in
	// Figure 8 (a)."
	if bv < 4*av {
		t.Errorf("stats confsync %.5fs vs plain %.5fs: want much larger", bv, av)
	}
	if bv > 0.5 {
		t.Errorf("stats confsync %.5fs: still negligible vs user interaction", bv)
	}
}

func TestFig8cIA32SimilarBehaviour(t *testing.T) {
	fig, err := NewRunner(Options{}).Figure("fig8c")
	if err != nil {
		t.Fatal(err)
	}
	s := fig.Series[0]
	if len(s.Points) != 15 {
		t.Fatalf("fig8c has %d points, want 2..16", len(s.Points))
	}
	for _, p := range s.Points {
		if p.Value <= 0 || p.Value > 0.01 {
			t.Errorf("IA32 confsync at %d CPUs: %.5fs outside (0, 0.01]", p.CPUs, p.Value)
		}
	}
}

func TestFig9Shape(t *testing.T) {
	fig, err := NewRunner(Options{MaxCPUs: 16}).Figure("fig9")
	if err != nil {
		t.Fatal(err)
	}
	// MPI applications: create+instrument time grows with P.
	for _, name := range []string{"smg98", "sppm", "sweep3d"} {
		lo := 1
		if name == "sweep3d" {
			lo = 2
		}
		a, ok1 := fig.At(name, lo)
		b, ok2 := fig.At(name, 16)
		if !ok1 || !ok2 {
			t.Fatalf("%s missing points", name)
		}
		if !(b > a) {
			t.Errorf("%s create+instrument flat: %v at %d vs %v at 16", name, a, lo, b)
		}
		if a < 5 || b > 600 {
			t.Errorf("%s create+instrument out of the paper's tens-of-seconds regime: %v..%v", name, a, b)
		}
	}
	// Umt98: flat ("there is only a single OpenMP process to instrument").
	u1, _ := fig.At("umt98", 1)
	u8, _ := fig.At("umt98", 8)
	if r := u8 / u1; r < 0.9 || r > 1.1 {
		t.Errorf("umt98 create+instrument not flat: %v at 1 vs %v at 8", u1, u8)
	}
}

func TestRenderers(t *testing.T) {
	var buf bytes.Buffer
	if err := RenderTable1(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "insert-file") {
		t.Error("table 1 missing insert-file")
	}
	buf.Reset()
	if err := RenderTable2(&buf); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"smg98", "MPI/C", "199", "umt98", "OMP/F77", "44"} {
		if !strings.Contains(buf.String(), want) {
			t.Errorf("table 2 missing %q:\n%s", want, buf.String())
		}
	}
	buf.Reset()
	if err := RenderTable3(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Full-Off") {
		t.Error("table 3 missing Full-Off")
	}

	fig, err := NewRunner(Options{MaxCPUs: 2}).Figure("fig7d")
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if err := fig.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "Dynamic") {
		t.Errorf("figure render missing series:\n%s", buf.String())
	}
	buf.Reset()
	if err := fig.CSV(&buf); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "CPUs,Full") {
		t.Errorf("CSV header wrong:\n%s", buf.String())
	}
}

func TestTraceBytesMotivation(t *testing.T) {
	// The paper's motivation: full tracing generates data far faster
	// than subset tracing. Compare trace volumes on one Smg98 run.
	full, err := Run(RunSpec{App: "smg98", Policy: Full, CPUs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	subset, err := Run(RunSpec{App: "smg98", Policy: Subset, CPUs: 2, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if full.TraceBytes < 4*subset.TraceBytes {
		t.Errorf("full trace %d bytes vs subset %d: want a large reduction",
			full.TraceBytes, subset.TraceBytes)
	}
	if subset.TraceBytes == 0 {
		t.Error("subset trace empty")
	}
}
