package exp

import (
	"math"
	"sync"
	"testing"
)

// The paper's qualitative claims about Figures 7, 8 and 9, as tolerance-bounded
// assertions over the full CPU range at the default seed. The golden hashes
// pin the exact bytes; these checks say which shape must survive an
// intentional change to them.

// dynamicOverNoneMax bounds Dynamic/None at any CPU count: dynamic
// instrumentation of the Subset functions costs about what no
// instrumentation costs. The worst case at the default seed is 1.115
// (smg98 at 1 CPU).
const dynamicOverNoneMax = 1.15

// fidelity caches fidelityFigures' sweep for the tests of this file.
var fidelity struct {
	once sync.Once
	figs map[string]*Figure
	err  error
}

// fidelityFigures runs fig7a-d, fig8a-c and fig9 at the paper's full CPU
// range, once per test binary.
func fidelityFigures(t *testing.T) map[string]*Figure {
	t.Helper()
	if testing.Short() {
		t.Skip("full-range figure sweep skipped in -short mode")
	}
	fidelity.once.Do(func() {
		figs, err := NewRunner(Options{}).Figures("fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig9")
		fidelity.figs, fidelity.err = make(map[string]*Figure, len(figs)), err
		for _, f := range figs {
			fidelity.figs[f.ID] = f
		}
	})
	if fidelity.err != nil {
		t.Fatal(fidelity.err)
	}
	for id, f := range fidelity.figs {
		if len(f.Failures) > 0 {
			t.Fatalf("%s: failed cells %v", id, f.Failures)
		}
	}
	return fidelity.figs
}

// TestFigure7PolicyOrder checks Figure 7's ordering of the instrumentation
// policies at every CPU count: None <= Dynamic <= Full, None <= Full-Off
// <= Subset <= Full (sweep3d has no Subset series), and Dynamic within
// dynamicOverNoneMax of None.
func TestFigure7PolicyOrder(t *testing.T) {
	figs := fidelityFigures(t)
	chains := [][]string{
		{"None", "Dynamic", "Full"},
		{"None", "Full-Off", "Subset", "Full"},
	}
	for _, id := range []string{"fig7a", "fig7b", "fig7c", "fig7d"} {
		f := figs[id]
		cpus := f.cpuRows()
		if len(cpus) < 4 {
			t.Fatalf("%s: only %d CPU counts", id, len(cpus))
		}
		for _, n := range cpus {
			for _, chain := range chains {
				prev, prevLabel := math.Inf(-1), ""
				for _, label := range chain {
					v, ok := f.At(label, n)
					if !ok {
						if label == "Subset" && id == "fig7c" {
							continue
						}
						t.Fatalf("%s: no %s value at %d CPUs", id, label, n)
					}
					if v < prev {
						t.Errorf("%s at %d CPUs: %s %.6f < %s %.6f", id, n, label, v, prevLabel, prev)
					}
					prev, prevLabel = v, label
				}
			}
			none, _ := f.At("None", n)
			dyn, _ := f.At("Dynamic", n)
			if dyn > dynamicOverNoneMax*none {
				t.Errorf("%s at %d CPUs: Dynamic/None = %.4f, want <= %.2f", id, n, dyn/none, dynamicOverNoneMax)
			}
		}
	}
}

// TestFigure9Shape checks Figure 9's create-and-instrument times: the
// OpenMP kernel umt98 instruments one process however many threads it
// runs, so its line is flat; each MPI kernel instruments every process, so
// its line rises strictly with the process count.
func TestFigure9Shape(t *testing.T) {
	f := fidelityFigures(t)["fig9"]
	series := make(map[string][]Point, len(f.Series))
	for _, s := range f.Series {
		series[s.Label] = s.Points
	}

	umt := series["umt98"]
	want := map[int]bool{1: true, 2: true, 4: true, 8: true}
	for _, p := range umt {
		delete(want, p.CPUs)
		if math.Abs(p.Value-umt[0].Value) > 1e-9*umt[0].Value {
			t.Errorf("umt98 at %d threads: %.6f, at %d: %.6f; want a flat line", p.CPUs, p.Value, umt[0].CPUs, umt[0].Value)
		}
	}
	if len(want) > 0 {
		t.Errorf("umt98: no points at thread counts %v", want)
	}

	for _, app := range []string{"smg98", "sppm", "sweep3d"} {
		pts := series[app]
		if len(pts) < 4 {
			t.Fatalf("%s: only %d points", app, len(pts))
		}
		for i := 1; i < len(pts); i++ {
			if pts[i].CPUs <= pts[i-1].CPUs || pts[i].Value <= pts[i-1].Value {
				t.Errorf("%s: %.4f at %d CPUs after %.4f at %d; want a strictly rising line",
					app, pts[i].Value, pts[i].CPUs, pts[i-1].Value, pts[i-1].CPUs)
			}
		}
	}
}

// seriesPoints returns the points of f's series label, failing t when
// the series has fewer than four.
func seriesPoints(t *testing.T, f *Figure, label string) []Point {
	t.Helper()
	for _, s := range f.Series {
		if s.Label == label {
			if len(s.Points) < 4 {
				t.Fatalf("%s %s: only %d points", f.ID, label, len(s.Points))
			}
			return s.Points
		}
	}
	t.Fatalf("%s: no %s series", f.ID, label)
	return nil
}

// TestFigure8Shape checks Figure 8's VT_confsync costs. On the IBM SP the
// sync with and without staged changes and the statistics write all rise
// strictly with the process count, and staging changes costs more than
// not at every count. On the IA32 cluster the cost steps up with the
// process count: it never falls and ends above where it starts.
func TestFigure8Shape(t *testing.T) {
	figs := fidelityFigures(t)
	for _, c := range []struct{ id, label string }{
		{"fig8a", "No Change"}, {"fig8a", "Changes"}, {"fig8b", "Statistics"},
	} {
		pts := seriesPoints(t, figs[c.id], c.label)
		for i := 1; i < len(pts); i++ {
			if pts[i].CPUs <= pts[i-1].CPUs || pts[i].Value <= pts[i-1].Value {
				t.Errorf("%s %s: %.6f at %d CPUs after %.6f at %d; want a strictly rising line",
					c.id, c.label, pts[i].Value, pts[i].CPUs, pts[i-1].Value, pts[i-1].CPUs)
			}
		}
	}

	noChange := seriesPoints(t, figs["fig8a"], "No Change")
	changes := seriesPoints(t, figs["fig8a"], "Changes")
	if len(changes) != len(noChange) {
		t.Fatalf("fig8a: %d Changes points, %d No Change", len(changes), len(noChange))
	}
	for i, p := range changes {
		if p.CPUs != noChange[i].CPUs || p.Value <= noChange[i].Value {
			t.Errorf("fig8a at %d CPUs: Changes %.6f, No Change %.6f at %d; want Changes above",
				p.CPUs, p.Value, noChange[i].Value, noChange[i].CPUs)
		}
	}

	ia32 := seriesPoints(t, figs["fig8c"], "No Change")
	for i := 1; i < len(ia32); i++ {
		if ia32[i].Value < ia32[i-1].Value {
			t.Errorf("fig8c: %.6f at %d CPUs after %.6f at %d; want a line that never falls",
				ia32[i].Value, ia32[i].CPUs, ia32[i-1].Value, ia32[i-1].CPUs)
		}
	}
	if first, last := ia32[0], ia32[len(ia32)-1]; last.Value <= first.Value {
		t.Errorf("fig8c: ends at %.6f (%d CPUs), not above its start %.6f (%d CPUs)",
			last.Value, last.CPUs, first.Value, first.CPUs)
	}
}
