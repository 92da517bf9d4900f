package exp

import (
	"encoding/json"
	"fmt"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

// This file implements the hidden "compact" figure: the trace-volume cost
// of Full instrumentation across the four ASCI kernels, with the trace
// stored verbatim versus in the compact encoding with redundancy
// suppression (vt.Collector.CompactStats). The plotted metric is trace
// bytes per event — the budget the compact format shrinks. Collector host time is measured
// separately by the microbenchmarks in internal/vt and end to end by the
// figures workload of bench/ (bash bench/run.sh -workload figures): host
// timings are nondeterministic and would break the
// byte-identical-at-any-parallelism contract every figure obeys.

// compactApps lists the kernels of the compact figure, in presentation
// order; the point's x coordinate is the kernel's 1-based index here.
var compactApps = []string{"smg98", "sppm", "sweep3d", "umt98"}

// compactProcs is the job size of every compact cell.
const compactProcs = 4

// CompactSpec describes one compact-figure cell: a Full-instrumentation
// run of a kernel whose trace is measured both verbatim and in the compact
// encoding.
type CompactSpec struct {
	// App is the kernel name (apps registry); it runs fig9Args' small deck.
	App string
	// Machine is the simulated platform (nil = IBM Power3 preset).
	Machine *machine.Config
	// Seed fixes the simulation seed (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s CompactSpec) norm() CompactSpec {
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first).
func (s CompactSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("compact|%s|procs=%d|%s|seed=%d|%s%s",
		n.App, compactProcs, n.Machine.Name, n.Seed, argsKey(fig9Args[n.App]), faultKey(n.Machine))
}

func (s CompactSpec) runCell(bud des.Budget) (cellResult, error) { return runCompactCell(s, bud) }

func (CompactSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[CompactResult](b) }

// CompactResult is one measured compact cell. Every field is a pure
// function of the simulation (no host timings), so the figure stays
// byte-identical at any parallelism and across resumes.
type CompactResult struct {
	App string
	// Elapsed is the virtual completion time of the run's main process.
	Elapsed des.Time
	// TraceEvents counts the collected trace events; TraceBytes is their
	// verbatim volume (EventBytes per event) and EncodedBytes the payload
	// of their compact encoding.
	TraceEvents  int
	TraceBytes   int
	EncodedBytes int
	// Records and Repeats count the encoded ops: Records total, Repeats
	// the parameterized repeat records among them.
	Records int
	Repeats int
}

// stats reports the trace event count as the cell's event count.
func (r CompactResult) stats() (des.Time, uint64, []fault.Event) {
	return r.Elapsed, uint64(r.TraceEvents), nil
}

// BytesPerEvent is the figure's plotted metric: trace bytes per event,
// verbatim or encoded.
func (r CompactResult) BytesPerEvent(encoded bool) float64 {
	bytes := r.TraceBytes
	if encoded {
		bytes = r.EncodedBytes
	}
	if r.TraceEvents == 0 {
		return 0
	}
	return float64(bytes) / float64(r.TraceEvents)
}

// runCompactCell runs one kernel at Full instrumentation and measures the
// trace volume in both representations.
func runCompactCell(spec CompactSpec, bud des.Budget) (CompactResult, error) {
	spec = spec.norm()
	res := CompactResult{App: spec.App}
	app, err := apps.Get(spec.App)
	if err != nil {
		return res, err
	}
	opts := guide.LaunchOpts{Procs: compactProcs, Args: fig9Args[spec.App]}
	err = launchCell(spec.Seed, bud, spec.Machine, app, Full.BuildOpts(app), opts, func(j *guide.Job) error {
		col := j.Collector()
		st := col.CompactStats()
		res.Elapsed, res.TraceEvents, res.TraceBytes = j.MainElapsed(), col.Len(), col.Bytes()
		res.EncodedBytes, res.Records, res.Repeats = st.Bytes, st.Records, st.Repeats
		return nil
	})
	return res, err
}

// planCompact enumerates the compact figure: bytes per trace event stored
// verbatim and compact-encoded, per kernel (x = 1-based kernel index in
// compactApps order). Both series read the one run of each kernel.
func planCompact(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Trace bytes per event at Full instrumentation",
		XLabel: "Kernel",
		YLabel: "Bytes/event",
		Series: []Series{{Label: "verbatim"}, {Label: "compact"}},
	}}
	for si, encoded := range []bool{false, true} {
		for ki, app := range compactApps {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   ki + 1,
				spec:   CompactSpec{App: app, Machine: opts.Machine, Seed: opts.seed()},
				value:  func(v cellResult) float64 { return v.(CompactResult).BytesPerEvent(encoded) },
			})
		}
	}
	return plan, nil
}
