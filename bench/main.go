// Command bench is the repository's end-to-end benchmark. It runs four
// workloads (figures, scale, tenants, trace) built from one seed, each run
// in a fresh child process, checks every output, and prints host-clock
// metrics (set-up, wall time, memory) next to the virtual-clock results the
// paper measures. A traced run attributes host time to this repository's
// modules with a CPU profile and records spans around every call the
// benchmark makes into a layer.
//
// Usage (from the repository root; bench/run.sh builds and runs it):
//
//	bash bench/run.sh [-seed N] [-runs 5] [-trace spans.json] [-out set.json]
//	bash bench/run.sh -workload W -seed N -seconds S -trace 0|1
//
// The first form runs every workload -runs times, round-robin, and prints
// median and quartiles per metric; -trace adds one traced run per workload
// and writes its spans. The second form runs one workload for S seconds and
// ends with one JSON line: the end-to-end metrics, or with -trace 1 the
// per-layer ones.
package main

import (
	"bufio"
	"context"
	_ "embed"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"dynprof/internal/exp"
)

// setupRepeats is how many times each measurement sets the workload up
// (the measured child included); setup_s is their median. Process start-up
// alone varies by a quarter from one launch to the next on a shared host.
const setupRepeats = 7

// childTimeout bounds one child process.
const childTimeout = 10 * time.Minute

// options holds the command line. The child-only flags are set by the
// parent when it re-executes itself.
type options struct {
	workload string
	seed     uint64
	seconds  float64
	runs     int
	trace    string
	out      string
	quick    bool

	child     bool
	setupOnly bool
	workdir   string

	workers int
}

// traced reports whether -trace asks for a traced run; spanFile is where
// its spans go ("" for -trace 1, which keeps them in the report only).
func (o *options) traced() bool { return o.trace != "" && o.trace != "0" }

func (o *options) spanFile() string {
	if o.trace == "1" {
		return ""
	}
	return o.trace
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout))
}

func run(args []string, stdout io.Writer) int {
	o := &options{workers: min(2, runtime.NumCPU())}
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "run only this workload and end with one JSON result line")
	fs.Uint64Var(&o.seed, "seed", exp.DefaultSeed, "seed every input is generated from")
	fs.Float64Var(&o.seconds, "seconds", 0, "measure each run for this many seconds (0: one unit)")
	fs.IntVar(&o.runs, "runs", 5, "runs per workload, round-robin (all-workloads mode)")
	fs.StringVar(&o.trace, "trace", "", "0: untraced; 1: traced; FILE: traced, spans written to FILE")
	fs.StringVar(&o.out, "out", "", "write the all-workloads summary as JSON to this file")
	fs.BoolVar(&o.quick, "quick", false, "reduced input sizes (smoke runs)")
	fs.BoolVar(&o.child, "child", false, "internal: run as a measured child")
	fs.BoolVar(&o.setupOnly, "setup-only", false, "internal: exit once set up")
	fs.StringVar(&o.workdir, "workdir", "", "internal: scratch directory (a traced child leaves its profile and spans there)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if o.child {
		if err := runChild(o); err != nil {
			fmt.Fprintln(os.Stderr, "bench child:", err)
			return 1
		}
		return 0
	}
	if o.workload != "" {
		if _, err := lookupWorkload(o.workload); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	root, err := filepath.Abs(filepath.Join(".bench_build", "tmp"))
	if err == nil {
		err = os.MkdirAll(root, 0o755)
	}
	if err == nil {
		o.workdir, err = os.MkdirTemp(root, "run-")
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "bench:", err)
		return 1
	}
	defer os.RemoveAll(o.workdir)
	if o.workload != "" {
		return runOne(o, stdout)
	}
	return runAll(o, stdout)
}

// childRun is one finished child process.
type childRun struct {
	// setupS is the child's set-up time; measure replaces it with the
	// median over the set-ups around the child.
	setupS float64
	rssMB  float64
	res    childResult
	// Traced runs only.
	spans  []span
	shares map[string]float64
	cpuS   float64
}

type childMode int

const (
	modeMeasure childMode = iota
	modeSetupOnly
	modeTraced
)

// spawn runs the benchmark binary as a child for one workload and waits
// for it. Set-up time runs from the start of the child to its ready line;
// peak RSS is the child's, from its resource usage.
func spawn(o *options, workload string, mode childMode) (*childRun, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	dir := filepath.Join(o.workdir, workload)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	args := []string{"-child", "-workload", workload, "-seed", strconv.FormatUint(o.seed, 10),
		"-seconds", strconv.FormatFloat(o.seconds, 'g', -1, 64), "-workdir", dir}
	if o.quick {
		args = append(args, "-quick")
	}
	switch mode {
	case modeSetupOnly:
		args = append(args, "-setup-only")
	case modeTraced:
		args = append(args, "-trace", "1")
	}
	ctx, cancel := context.WithTimeout(context.Background(), childTimeout)
	defer cancel()
	cmd := exec.CommandContext(ctx, exe, args...)
	cmd.Stderr = os.Stderr
	// The child must not outlive a killed parent.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	cr := &childRun{}
	var last string
	var refs []float64
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<16), 1<<24)
	for sc.Scan() {
		switch line := sc.Text(); {
		case line == readyLine && cr.setupS == 0:
			cr.setupS = time.Since(t0).Seconds()
		case line == refLine:
			refs = append(refs, refKernel().Seconds())
			if _, err := io.WriteString(stdin, "go\n"); err != nil {
				cmd.Process.Kill()
			}
		default:
			last = line
		}
	}
	scanErr := sc.Err()
	stdin.Close()
	if err := cmd.Wait(); err != nil {
		return nil, fmt.Errorf("bench: %s child: %w", workload, err)
	}
	if scanErr != nil {
		return nil, scanErr
	}
	if cr.setupS == 0 {
		return nil, fmt.Errorf("bench: %s child never became ready", workload)
	}
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		cr.rssMB = float64(ru.Maxrss) / 1024 // Linux reports KiB
	}
	if mode == modeSetupOnly {
		return cr, nil
	}
	if err := json.Unmarshal([]byte(last), &cr.res); err != nil {
		return nil, fmt.Errorf("bench: %s child result: %w", workload, err)
	}
	if len(refs) != len(cr.res.Units)+1 {
		return nil, fmt.Errorf("bench: %s child timed %d references for %d units", workload, len(refs), len(cr.res.Units))
	}
	for i := range cr.res.Units {
		cr.res.Units[i].RefS = (refs[i] + refs[i+1]) / 2
	}
	if mode == modeTraced {
		if cr.shares, cr.cpuS, err = hostShares(filepath.Join(dir, profileFile)); err != nil {
			return nil, err
		}
		if cr.spans, err = readSpans(filepath.Join(dir, spansFile)); err != nil {
			return nil, err
		}
	}
	return cr, nil
}

// metricDef declares one reported metric.
type metricDef struct {
	name, unit, better string
}

// endToEnd are the metrics every workload reports on the one-workload
// form's JSON line with -trace 0. BENCHMARK.json declares exactly these. Raw wall time
// is not among them: on a shared host it drifts by a third between runs,
// more than any bound could absorb; wall_ref divides that drift out.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"wall_ref", "ref", "lower"},
	{"peak_rss_mb", "MiB", "lower"},
	{"alloc_mb", "MiB", "lower"},
}

// perLayer are the metrics every workload reports with -trace 1.
func perLayer() []metricDef {
	var defs []metricDef
	for _, m := range append(append([]string(nil), modules...), runtimeShare) {
		defs = append(defs, metricDef{"host_share." + m, "frac", "lower"})
	}
	return append(defs, metricDef{"traced.wall_ref", "ref", "lower"}, metricDef{"profile.cpu_s", "s", "lower"})
}

// unitMedians returns the median over a run's units of wall time, wall
// time in reference units, and allocation.
func unitMedians(cr *childRun) (wall, wallRef, alloc float64) {
	var walls, refs, allocs []float64
	for _, u := range cr.res.Units {
		walls = append(walls, u.WallS)
		refs = append(refs, u.WallS/u.RefS)
		allocs = append(allocs, u.AllocMB)
	}
	return median(walls), median(refs), median(allocs)
}

// runMetrics computes one run's metrics by name: the end-to-end set, then
// raw wall time, the reference time, fail_frac, sim_events_per_s where the
// workload's DES is observable, and the workload's exact virtual-clock
// metrics.
func runMetrics(def workloadDef, cr *childRun) (map[string]float64, []metricDef) {
	wall, wallRef, alloc := unitMedians(cr)
	var refs, evs []float64
	for _, u := range cr.res.Units {
		refs = append(refs, u.RefS)
		evs = append(evs, float64(u.Events)/u.WallS)
	}
	v := map[string]float64{
		"setup_s":     cr.setupS,
		"wall_ref":    wallRef,
		"peak_rss_mb": cr.rssMB,
		"alloc_mb":    alloc,
		"wall_s":      wall,
		"ref_s":       median(refs),
		"fail_frac":   float64(cr.res.Failed) / float64(max(1, cr.res.Attempted)),
	}
	defs := append(append([]metricDef(nil), endToEnd...),
		metricDef{"wall_s", "s", "lower"}, metricDef{"ref_s", "s", "info"}, metricDef{"fail_frac", "frac", "lower"})
	if def.events {
		v["sim_events_per_s"] = median(evs)
		defs = append(defs, metricDef{"sim_events_per_s", "1/s", "higher"})
	}
	for _, e := range def.exact {
		if x, ok := cr.res.Exact[e[0]]; ok {
			v[e[0]] = x
			defs = append(defs, metricDef{e[0], e[1], "exact"})
		}
	}
	return v, defs
}

// layerMetrics are a traced run's per-layer metrics, as declared.
func layerMetrics(cr *childRun) map[string]float64 {
	v := make(map[string]float64)
	for m, share := range cr.shares {
		v["host_share."+m] = share
	}
	_, v["traced.wall_ref"], _ = unitMedians(cr)
	v["profile.cpu_s"] = cr.cpuS
	return v
}

// jsonMetric and jsonResult are the one-workload form's result line.
type jsonMetric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type jsonResult struct {
	Correct   bool                  `json:"correct"`
	Attempted int                   `json:"attempted"`
	Failed    int                   `json:"failed"`
	Metrics   map[string]jsonMetric `json:"metrics"`
}

// resultLine builds the JSON line of a one-workload run.
func resultLine(cr *childRun, values map[string]float64, defs []metricDef, ok bool) jsonResult {
	r := jsonResult{Correct: ok, Attempted: cr.res.Attempted, Failed: cr.res.Failed, Metrics: make(map[string]jsonMetric)}
	for _, d := range defs {
		r.Metrics[d.name] = jsonMetric{Value: values[d.name], Unit: d.unit}
	}
	return r
}

// measure runs one measured child, in mode, between setupRepeats-1
// set-up-only children, half before and half after it, so its set-up time
// is a median that samples the host on both sides of the run.
func measure(o *options, workload string, mode childMode) (*childRun, error) {
	var setups []float64
	var cr *childRun
	for i := 0; i < setupRepeats; i++ {
		m := modeSetupOnly
		if i == setupRepeats/2 {
			m = mode
		}
		r, err := spawn(o, workload, m)
		if err != nil {
			return nil, err
		}
		if m != modeSetupOnly {
			cr = r
		}
		setups = append(setups, r.setupS)
	}
	cr.setupS = median(setups)
	return cr, nil
}

// runOne is the one-workload form: one workload measured for o.seconds,
// one JSON line at the end.
func runOne(o *options, stdout io.Writer) int {
	def, _ := lookupWorkload(o.workload)
	mode := modeMeasure
	if o.traced() {
		mode = modeTraced
	}
	cr, err := measure(o, def.name, mode)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	values, defs := runMetrics(def, cr)
	ok := cr.res.Failed == 0
	fmt.Fprintf(stdout, "workload %s  seed %d  units %d  workers %d  set-ups %d\n",
		def.name, o.seed, len(cr.res.Units), o.workers, setupRepeats)
	for _, d := range defs {
		fmt.Fprintf(stdout, "  %-24s %-6s %14.6g  (%s)\n", d.name, d.unit, values[d.name], d.better)
	}
	reportFailures(stdout, cr)
	fmt.Fprintf(stdout, "  %s\n", digestLine(def.name, o.seed, cr.res.Digest))

	jsonDefs := endToEnd
	if o.traced() {
		values = layerMetrics(cr)
		jsonDefs = perLayer()
		writeLayer(stdout, cr)
		if f := o.spanFile(); f != "" {
			if err := writeSpans(f, cr.spans); err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
		}
	}
	b, err := json.Marshal(resultLine(cr, values, jsonDefs, ok))
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	fmt.Fprintf(stdout, "%s\n", b)
	if !ok {
		return 1
	}
	return 0
}

func reportFailures(w io.Writer, cr *childRun) {
	for _, f := range cr.res.Failures {
		fmt.Fprintf(w, "  FAIL %s: %s\n", cr.res.Workload, f)
	}
}

// writeLayer prints a traced run's per-layer metrics: host shares by
// module, the workload's own layer metrics, and span self time.
func writeLayer(w io.Writer, cr *childRun) {
	fmt.Fprintf(w, "  per-layer (traced run, %.2f CPU s profiled):\n", cr.cpuS)
	lm := layerMetrics(cr)
	names := make([]string, 0, len(lm)+len(cr.res.Layer))
	for k := range lm {
		names = append(names, k)
	}
	for k := range cr.res.Layer {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		v, ok := lm[k]
		if !ok {
			v = cr.res.Layer[k]
		}
		fmt.Fprintf(w, "    %-34s %14.6g %s\n", k, v, layerUnit(k))
	}
	writeSelfTime(w, cr.spans)
}

// layerUnit derives a per-layer metric's unit from the first name segment
// that carries one: "serve.admit_wait_s.p99.r30" is in s.
func layerUnit(name string) string {
	for _, seg := range strings.Split(name, ".") {
		switch {
		case strings.HasSuffix(seg, "_mb_per_s"):
			return "MiB/s"
		case strings.HasSuffix(seg, "_per_s"):
			return "1/s"
		case strings.HasSuffix(seg, "_ms"):
			return "ms"
		case strings.HasSuffix(seg, "_s"):
			return "s"
		case strings.HasSuffix(seg, "_bytes"):
			return "B"
		case strings.HasSuffix(seg, "speedup"):
			return "x"
		case strings.HasSuffix(seg, "share"), seg == "utilization":
			return "frac"
		}
	}
	return "count"
}

//go:embed testdata/sim_digests.txt
var simDigests string

// digestLine reports a run's simulated-output digest against the
// committed reference for its seed. A mismatch means simulated results
// changed; it is reported, not counted as a failure.
func digestLine(workload string, seed uint64, digest string) string {
	line := fmt.Sprintf("sim_digest %s %d %s", workload, seed, digest)
	prefix := fmt.Sprintf("%s %d ", workload, seed)
	for _, ref := range strings.Split(simDigests, "\n") {
		if want, ok := strings.CutPrefix(ref, prefix); ok {
			if want == digest {
				return line + "  (matches the reference)"
			}
			return line + "  (simulated results changed: reference " + want + ")"
		}
	}
	return line + "  (no reference at this seed)"
}

// summaryMetric is one metric's spread over the runs of a set.
type summaryMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

type workloadSummary struct {
	Metrics   []summaryMetric `json:"metrics"`
	Digest    string          `json:"sim_digest"`
	Attempted int             `json:"attempted"`
	Failed    int             `json:"failed"`
	// Traced runs only.
	Layer              map[string]float64 `json:"layer,omitempty"`
	TracingOverheadPct float64            `json:"tracing_overhead_pct,omitempty"`
}

func (ws workloadSummary) median(name string) float64 {
	for _, m := range ws.Metrics {
		if m.Name == name {
			return m.Median
		}
	}
	return 0
}

type hostInfo struct {
	CPU       string `json:"cpu"`
	NumCPU    int    `json:"nproc"`
	Workers   int    `json:"workers"`
	GoVersion string `json:"go_version"`
}

type setSummary struct {
	Host      hostInfo                   `json:"host"`
	Seed      uint64                     `json:"seed"`
	Runs      int                        `json:"runs"`
	Seconds   float64                    `json:"seconds"`
	Workloads map[string]workloadSummary `json:"workloads"`
}

// cpuModel names the host CPU from /proc/cpuinfo ("unknown" elsewhere).
func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// runAll runs every workload o.runs times, round-robin, then (with
// -trace) one traced run each, and prints each metric's median and
// quartiles. It exits non-zero on any failed check.
func runAll(o *options, stdout io.Writer) int {
	sum := setSummary{
		Host: hostInfo{CPU: cpuModel(), NumCPU: runtime.NumCPU(), Workers: o.workers, GoVersion: runtime.Version()},
		Seed: o.seed, Runs: o.runs, Seconds: o.seconds, Workloads: make(map[string]workloadSummary),
	}
	fmt.Fprintf(stdout, "host %s, nproc %d, %d workers, %s; seed %d, %d runs per workload\n",
		sum.Host.CPU, sum.Host.NumCPU, o.workers, sum.Host.GoVersion, o.seed, o.runs)
	runs := make(map[string][]*childRun)
	failed := false
	for r := 0; r < o.runs; r++ {
		for _, def := range workloads {
			cr, err := measure(o, def.name, modeMeasure)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			runs[def.name] = append(runs[def.name], cr)
		}
	}
	var allSpans []span
	for _, def := range workloads {
		ws, ok := summarize(stdout, def, o.seed, runs[def.name])
		failed = failed || !ok
		if o.traced() {
			cr, err := measure(o, def.name, modeTraced)
			if err != nil {
				fmt.Fprintln(os.Stderr, err)
				return 1
			}
			writeLayer(stdout, cr)
			reportFailures(stdout, cr)
			ws.Layer = layerMetrics(cr)
			for k, v := range cr.res.Layer {
				ws.Layer[k] = v
			}
			untraced := ws.median("wall_ref")
			ws.TracingOverheadPct = (ws.Layer["traced.wall_ref"]/untraced - 1) * 100
			fmt.Fprintf(stdout, "  tracing overhead: traced wall_ref %.4f vs untraced median %.4f (%+.1f%%)\n",
				ws.Layer["traced.wall_ref"], untraced, ws.TracingOverheadPct)
			if cr.res.Digest != ws.Digest {
				fmt.Fprintf(stdout, "  FAIL %s: traced run simulated different results (%s)\n", def.name, cr.res.Digest)
				failed = true
			}
			failed = failed || cr.res.Failed > 0
			offset := len(allSpans)
			for _, s := range cr.spans {
				s.ID += offset
				if s.Parent != 0 {
					s.Parent += offset
				}
				allSpans = append(allSpans, s)
			}
		}
		sum.Workloads[def.name] = ws
	}
	if f := o.spanFile(); f != "" {
		if err := writeSpans(f, allSpans); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
		fmt.Fprintf(stdout, "wrote %d spans to %s\n", len(allSpans), f)
	}
	if o.out != "" {
		b, err := json.MarshalIndent(sum, "", "  ")
		if err == nil {
			err = os.WriteFile(o.out, append(b, '\n'), 0o644)
		}
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 1
		}
	}
	if failed {
		fmt.Fprintln(stdout, "FAIL")
		return 1
	}
	return 0
}

// summarize prints one workload's metric table over its runs and checks
// that every run passed and simulated the same results.
func summarize(w io.Writer, def workloadDef, seed uint64, crs []*childRun) (workloadSummary, bool) {
	ws := workloadSummary{Digest: crs[0].res.Digest}
	ok := true
	per := make(map[string][]float64)
	var defs []metricDef
	for _, cr := range crs {
		var v map[string]float64
		v, defs = runMetrics(def, cr)
		for k, x := range v {
			per[k] = append(per[k], x)
		}
		ws.Attempted += cr.res.Attempted
		ws.Failed += cr.res.Failed
		if cr.res.Digest != ws.Digest {
			ok = false
		}
	}
	fmt.Fprintf(w, "\n%s (%d runs)\n  %-24s %-6s %14s %14s %14s %3s\n", def.name, len(crs), "metric", "unit", "median", "q1", "q3", "n")
	for _, d := range defs {
		q1, med, q3 := quartiles(per[d.name])
		ws.Metrics = append(ws.Metrics, summaryMetric{Name: d.name, Unit: d.unit, Better: d.better,
			Median: med, Q1: q1, Q3: q3, N: len(per[d.name])})
		fmt.Fprintf(w, "  %-24s %-6s %14.6g %14.6g %14.6g %3d\n", d.name, d.unit, med, q1, q3, len(per[d.name]))
	}
	for _, cr := range crs {
		reportFailures(w, cr)
	}
	if !ok {
		fmt.Fprintf(w, "  FAIL %s: runs simulated different results\n", def.name)
	}
	fmt.Fprintf(w, "  %s\n", digestLine(def.name, seed, ws.Digest))
	return ws, ok && ws.Failed == 0
}
