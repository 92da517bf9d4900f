package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vgv"
	"dynprof/internal/vt"
)

// traceKernel is one kernel run of the trace workload.
type traceKernel struct {
	app   string
	procs int
	args  map[string]int // nil: the application's default deck
	bin   *guide.Binary
}

// traceWL runs each kernel fully instrumented into the default collector,
// writes the trace file, reads it back and renders every VGV view from
// both collectors.
type traceWL struct {
	seed    uint64
	dir     string
	mach    *machine.Config
	kernels []*traceKernel
	buildMS float64
}

// vgvViews are the artifacts the trace workload renders, in order.
var vgvViews = []string{"report", "callgraph", "commmatrix", "timeline"}

func newTrace(cfg config) (workload, error) {
	kernels := []*traceKernel{
		{app: "smg98", procs: 64},
		{app: "sppm", procs: 64},
		{app: "sweep3d", procs: 64},
		{app: "umt98", procs: 8},
	}
	if cfg.quick {
		kernels = []*traceKernel{
			{app: "smg98", procs: 4, args: map[string]int{"nx": 6, "ny": 6, "nz": 8, "iters": 1}},
			{app: "sppm", procs: 4, args: map[string]int{"nx": 6, "ny": 6, "nz": 6, "steps": 1}},
			{app: "sweep3d", procs: 4, args: map[string]int{"nx": 64, "ny": 4, "nz": 4, "iters": 1}},
			{app: "umt98", procs: 4, args: map[string]int{"zones": 64, "angles": 8, "iters": 1}},
		}
	}
	w := &traceWL{seed: cfg.seed, dir: cfg.workdir, mach: machine.MustNew("ibm-power3"), kernels: kernels}
	t0 := time.Now()
	for _, k := range kernels {
		app, err := apps.Get(k.app)
		if err != nil {
			return nil, err
		}
		if k.bin, err = guide.Build(app, exp.Full.BuildOpts(app)); err != nil {
			return nil, err
		}
	}
	w.buildMS = msSince(t0)
	return w, nil
}

// writeTraceFile writes col's textual trace to path.
func writeTraceFile(path string, col *vt.Collector) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := col.WriteTrace(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readTraceFile reads a trace file back, returns its size and removes it.
func readTraceFile(path string) (*vt.Collector, int64, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, 0, err
	}
	defer os.Remove(path)
	defer f.Close()
	st, err := f.Stat()
	if err != nil {
		return nil, 0, err
	}
	col, err := vt.ReadTraceAuto(f)
	return col, st.Size(), err
}

func msSince(t0 time.Time) float64 { return float64(time.Since(t0)) / float64(time.Millisecond) }

func (w *traceWL) unit(tr *tracer) (*unitOut, error) {
	out := newUnitOut()
	h := sha256.New()
	l := out.layer
	l["guide.build_ms"] = w.buildMS
	var runS float64
	var nEvents, nBytes int
	for _, k := range w.kernels {
		kid := tr.host(0, "guide", "kernel "+k.app)
		s := des.NewScheduler(w.seed)
		id := tr.host(kid, "guide", "Launch")
		t0 := time.Now()
		j, err := guide.Launch(s, w.mach, k.bin, guide.LaunchOpts{Procs: k.procs, Args: k.args})
		l["guide.launch_ms"] += msSince(t0)
		tr.done(id)
		if err != nil {
			return nil, err
		}

		id = tr.host(kid, "des", "Scheduler.Run")
		t0 = time.Now()
		err = s.Run()
		runS += time.Since(t0).Seconds()
		tr.done(id)
		if err != nil {
			return nil, fmt.Errorf("bench: trace %s: %w", k.app, err)
		}
		tr.virtDone(tr.virt(kid, "des", "run "+k.app, 0), s.Now())
		out.attempted++
		out.events += s.Executed()

		// The trace goes through a file on disk, as vgv reads it, and each
		// collector is released before the next is built, bounding memory.
		col := j.Collector()
		path := filepath.Join(w.dir, k.app+".vgvtrace")
		id = tr.host(kid, "vt", "WriteTrace")
		t0 = time.Now()
		err = writeTraceFile(path, col)
		l["vt.write_ms"] += msSince(t0)
		tr.done(id)
		if err != nil {
			return nil, err
		}
		want, err := renderViews(tr, kid, col, l)
		if err != nil {
			return nil, err
		}
		n, b := col.Len(), col.Bytes()
		col.Release()

		id = tr.host(kid, "vt", "ReadTraceAuto")
		t0 = time.Now()
		back, fileBytes, err := readTraceFile(path)
		l["vt.read_ms"] += msSince(t0)
		tr.done(id)
		if err != nil {
			return nil, fmt.Errorf("bench: trace %s: reading the trace file back: %w", k.app, err)
		}
		got, err := renderViews(tr, kid, back, l)
		if err != nil {
			return nil, err
		}
		if back.Len() != n || back.Bytes() != b {
			out.fail("trace %s: read back %d events/%d bytes, wrote %d/%d", k.app, back.Len(), back.Bytes(), n, b)
		}
		back.Release()
		fmt.Fprintf(h, "%s procs=%d events=%d bytes=%d file=%d end=%d des=%d\n",
			k.app, k.procs, n, b, fileBytes, s.Now(), s.Executed())
		for i, view := range vgvViews {
			if !bytes.Equal(want[i], got[i]) {
				out.fail("trace %s: %s differs after the file round trip", k.app, view)
			}
			fmt.Fprintf(h, "%s %x\n", view, sha256.Sum256(want[i]))
		}
		nEvents += n
		nBytes += b
		l["vt.tracefile_bytes"] += float64(fileBytes)
		tr.done(kid)
	}
	out.sum(h)
	out.exact["trace_bytes_per_event"] = float64(nBytes) / float64(nEvents)
	l["des.run_s"] = runS
	l["des.events"] = float64(out.events)
	l["des.events_per_s"] = float64(out.events) / runS
	l["vt.trace_events"] = float64(nEvents)
	l["vt.collector_bytes"] = float64(nBytes)
	l["vt.write_mb_per_s"] = l["vt.tracefile_bytes"] / (1 << 20) / (l["vt.write_ms"] / 1000)
	l["vt.read_mb_per_s"] = l["vt.tracefile_bytes"] / (1 << 20) / (l["vt.read_ms"] / 1000)
	return out, nil
}

// renderViews analyzes col and renders every VGV view, adding each step's
// host time to the layer metrics.
func renderViews(tr *tracer, parent int, col *vt.Collector, l map[string]float64) ([][]byte, error) {
	id := tr.host(parent, "vgv", "Analyze")
	t0 := time.Now()
	p := vgv.Analyze(col)
	l["vgv.analyze_ms"] += msSince(t0)
	tr.done(id)
	views := make([][]byte, len(vgvViews))
	for i, view := range vgvViews {
		var buf bytes.Buffer
		id := tr.host(parent, "vgv", view)
		t0 := time.Now()
		var err error
		switch view {
		case "report":
			err = p.WriteReport(&buf, 20)
		case "callgraph":
			err = p.WriteCallGraph(&buf, 20)
		case "commmatrix":
			err = p.WriteCommMatrix(&buf, 20)
		case "timeline":
			err = vgv.RenderTimeline(col, &buf, 72)
		}
		l["vgv."+view+"_ms"] += msSince(t0)
		tr.done(id)
		if err != nil {
			return nil, err
		}
		views[i] = buf.Bytes()
	}
	return views, nil
}
