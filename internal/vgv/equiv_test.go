package vgv

import (
	"bytes"
	"io"
	"path/filepath"
	"testing"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// A trace has one in-memory representation (the collector's arena) and is
// encoded in compact blocks only where it leaves memory, so the encoding
// must be invisible to analysis: every VGV rendering — directly, after a
// forced spill cycle, after a round trip through the binary trace file and
// after one through the textual trace file — must be byte-identical. This
// suite enforces that per kernel at Full instrumentation.

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
// report, call graph, communication matrix and the textual trace dump.
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

// compareRenderings byte-compares every artifact, the raw trace dump
// included: function-id assignment follows declaration order, so sibling
// runs of the same deck produce identical ids and identical dumps.
func compareRenderings(t *testing.T, label string, want, got map[string][]byte) {
	t.Helper()
	for artifact, w := range want {
		if !bytes.Equal(w, got[artifact]) {
			t.Errorf("%s: %s diverges from reference rendering", label, artifact)
		}
	}
}

// readBack reads a trace file written by write back into a collector.
func readBack(t *testing.T, write func(io.Writer) error) *vt.Collector {
	t.Helper()
	var file bytes.Buffer
	if err := write(&file); err != nil {
		t.Fatal(err)
	}
	col, err := vt.ReadTraceAuto(&file)
	if err != nil {
		t.Fatal(err)
	}
	return col
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
			compareRenderings(t, "spilling", want, renderAll(t, spilling))

			fromBinary := readBack(t, mem.WriteCompactTrace)
			defer fromBinary.Release()
			compareRenderings(t, "binary file", want, renderAll(t, fromBinary))

			fromText := readBack(t, mem.WriteTrace)
			defer fromText.Release()
			compareRenderings(t, "text file", want, renderAll(t, fromText))
		})
	}
}
