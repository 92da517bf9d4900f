package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"
)

// Lines a child prints on standard output to its parent. readyLine ends
// set-up: the parent times set-up from the child's start to it. refLine
// asks the parent to time the host-speed reference now, before a unit and
// after the last one; the child waits for the parent's reply.
const (
	readyLine = "ready"
	refLine   = "ref"
)

// A traced child leaves these files in its scratch directory.
const (
	profileFile = "cpu.pprof"
	spansFile   = "spans.json"
)

// maxFailures bounds the failure messages a child reports (all are counted).
const maxFailures = 20

// unitStat is one timed unit's host-side measurement.
type unitStat struct {
	WallS float64 `json:"wall_s"`
	// RefS is the reference kernel's time around the unit, filled in by the
	// parent.
	RefS    float64 `json:"ref_s"`
	AllocMB float64 `json:"alloc_mb"`
	Events  uint64  `json:"events"`
}

// childResult is what a measuring child prints as its last line.
type childResult struct {
	Workload  string             `json:"workload"`
	Units     []unitStat         `json:"units"`
	Digest    string             `json:"digest"`
	Attempted int                `json:"attempted"`
	Failed    int                `json:"failed"`
	Failures  []string           `json:"failures,omitempty"`
	Exact     map[string]float64 `json:"exact"`
	Layer     map[string]float64 `json:"layer,omitempty"`
}

func (r *childResult) fail(msg string) {
	r.Failed++
	if len(r.Failures) < maxFailures {
		r.Failures = append(r.Failures, msg)
	}
}

// runChild is one measured process: it builds the workload's inputs, runs
// one quick-size unit as warm-up, reports readiness, then runs full units
// until o.seconds have passed (at least one). A traced child also records
// spans and a CPU profile of the timed region.
func runChild(o *options) error {
	runtime.GOMAXPROCS(o.workers)
	def, err := lookupWorkload(o.workload)
	if err != nil {
		return err
	}
	cfg := config{seed: o.seed, workers: o.workers, quick: o.quick, workdir: o.workdir}
	w, err := def.build(cfg)
	if err != nil {
		return err
	}
	warm := cfg
	warm.quick = true
	wq, err := def.build(warm)
	if err != nil {
		return err
	}
	if _, err := wq.unit(nil); err != nil {
		return fmt.Errorf("bench: warm-up: %w", err)
	}
	fmt.Println(readyLine)
	if o.setupOnly {
		return nil
	}

	var tr *tracer
	var prof *os.File
	if o.traced() {
		if prof, err = os.Create(filepath.Join(o.workdir, profileFile)); err != nil {
			return err
		}
		defer prof.Close()
		tr = newTracer(def.name)
		if err := pprof.StartCPUProfile(prof); err != nil {
			return err
		}
	}
	in := bufio.NewReader(os.Stdin)
	awaitRef := func() error {
		fmt.Println(refLine)
		_, err := in.ReadString('\n')
		return err
	}
	res := childResult{Workload: def.name}
	layer := make(map[string][]float64)
	start := time.Now()
	for len(res.Units) == 0 || time.Since(start).Seconds() < o.seconds {
		if err := awaitRef(); err != nil {
			return err
		}
		// Two collections empty every sync.Pool (primary and victim), so
		// no unit reuses arenas a previous unit left behind.
		runtime.GC()
		runtime.GC()
		var m0, m1 runtime.MemStats
		runtime.ReadMemStats(&m0)
		t0 := time.Now()
		u, err := w.unit(tr)
		wall := time.Since(t0).Seconds()
		runtime.ReadMemStats(&m1)
		if err != nil {
			pprof.StopCPUProfile()
			return err
		}
		res.Units = append(res.Units, unitStat{
			WallS:   wall,
			AllocMB: float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20),
			Events:  u.events,
		})
		switch {
		case res.Digest == "":
			res.Digest = u.digest
			res.Exact = u.exact
		case u.digest != res.Digest:
			res.fail(fmt.Sprintf("unit %d simulated different results than unit 1", len(res.Units)))
		}
		res.Attempted += u.attempted
		for _, f := range u.failures {
			res.fail(f)
		}
		for k, v := range u.layer {
			layer[k] = append(layer[k], v)
		}
	}
	if err := awaitRef(); err != nil {
		return err
	}
	if tr == nil {
		return printJSON(res)
	}

	pprof.StopCPUProfile()
	if err := prof.Close(); err != nil {
		return err
	}
	res.Layer = make(map[string]float64, len(layer))
	for k, vs := range layer {
		res.Layer[k] = median(vs)
	}
	if x, ok := w.(tracedExtra); ok {
		extra, err := x.extra(tr)
		if err != nil {
			return err
		}
		for k, v := range extra {
			res.Layer[k] = v
		}
	}
	if err := writeSpans(filepath.Join(o.workdir, spansFile), tr.spans); err != nil {
		return err
	}
	return printJSON(res)
}

func printJSON(v any) error {
	b, err := json.Marshal(v)
	if err != nil {
		return err
	}
	_, err = fmt.Printf("%s\n", b)
	return err
}
