package vgv

import (
	"bytes"
	"path/filepath"
	"reflect"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// A trace has one in-memory representation (the collector's arena) and is
// encoded in compact blocks only where it leaves memory, so the encoding
// must be invisible to analysis: the ordered view and every VGV rendering —
// directly, after a forced spill cycle and after a round trip through the
// trace file — must be identical. This suite enforces that per kernel at
// Full instrumentation.

var equivKernels = []struct {
	app   string
	args  map[string]int
	procs int
}{
	{"smg98", map[string]int{"nx": 6, "ny": 6, "nz": 8, "iters": 1}, 4},
	{"sppm", map[string]int{"nx": 6, "ny": 6, "nz": 6, "steps": 1}, 4},
	{"sweep3d", map[string]int{"nx": 64, "ny": 4, "nz": 4, "iters": 1}, 4},
	{"umt98", map[string]int{"zones": 64, "angles": 8, "iters": 1}, 4},
}

// runKernel executes one kernel at Full instrumentation and returns the
// job's populated collector, armed to spill to spillPath at 256 events
// unless spillPath is empty.
func runKernel(t *testing.T, name string, args map[string]int, procs int, spillPath string) *vt.Collector {
	t.Helper()
	app, err := apps.Get(name)
	if err != nil {
		t.Fatal(err)
	}
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true, TraceAPI: true})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(53)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{
		Procs: procs,
		Args:  args,
	})
	if err != nil {
		t.Fatal(err)
	}
	if spillPath != "" {
		if err := j.Collector().SpillTo(spillPath, 256); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return j.Collector()
}

// renderAll produces every VGV artifact of a trace: timeline, profile
// report, call graph, communication matrix and the trace file.
func renderAll(t *testing.T, col *vt.Collector) map[string][]byte {
	t.Helper()
	out := make(map[string][]byte)
	var buf bytes.Buffer
	if err := RenderTimeline(col, &buf, 72); err != nil {
		t.Fatal(err)
	}
	out["timeline"] = append([]byte(nil), buf.Bytes()...)
	p := Analyze(col)
	buf.Reset()
	if err := p.WriteReport(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["report"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := p.WriteCallGraph(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["callgraph"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := p.WriteCommMatrix(&buf, 20); err != nil {
		t.Fatal(err)
	}
	out["commmatrix"] = append([]byte(nil), buf.Bytes()...)
	buf.Reset()
	if err := col.WriteTrace(&buf); err != nil {
		t.Fatal(err)
	}
	out["trace"] = append([]byte(nil), buf.Bytes()...)
	return out
}

// compareRenderings byte-compares every artifact, the trace file included
// (function-id assignment follows declaration order, so sibling runs of
// the same deck produce identical ids and identical files), and requires
// the same ordered events.
func compareRenderings(t *testing.T, label string, wantCol, gotCol *vt.Collector, want map[string][]byte) {
	t.Helper()
	if !reflect.DeepEqual(wantCol.Ordered().AppendTo(nil), gotCol.Ordered().AppendTo(nil)) {
		t.Errorf("%s: ordered view diverges", label)
	}
	got := renderAll(t, gotCol)
	for artifact, w := range want {
		if !bytes.Equal(w, got[artifact]) {
			t.Errorf("%s: %s diverges from reference rendering", label, artifact)
		}
	}
}

// readBack writes col's trace file and reads it back into a collector.
func readBack(t *testing.T, col *vt.Collector) *vt.Collector {
	t.Helper()
	var file bytes.Buffer
	if err := col.WriteTrace(&file); err != nil {
		t.Fatal(err)
	}
	back, err := vt.ReadTrace(&file)
	if err != nil {
		t.Fatal(err)
	}
	return back
}

func TestCompactVGVEquivalence(t *testing.T) {
	for _, k := range equivKernels {
		t.Run(k.app, func(t *testing.T) {
			mem := runKernel(t, k.app, k.args, k.procs, "")
			defer mem.Release()
			want := renderAll(t, mem)
			if mem.Len() == 0 {
				t.Fatal("run collected no events")
			}
			if st := mem.CompactStats(); st.Bytes >= st.VerbatimBytes() {
				t.Errorf("no suppression: %d encoded vs %d verbatim bytes", st.Bytes, st.VerbatimBytes())
			}

			spilling := runKernel(t, k.app, k.args, k.procs, filepath.Join(t.TempDir(), "equiv.spill"))
			defer spilling.Release()
			if spilling.Spilled() == 0 {
				t.Fatal("spill threshold never reached")
			}
			if err := spilling.SpillErr(); err != nil {
				t.Fatal(err)
			}
			compareRenderings(t, "spilling", mem, spilling, want)

			fromFile := readBack(t, mem)
			defer fromFile.Release()
			compareRenderings(t, "trace file", mem, fromFile, want)
		})
	}
}
