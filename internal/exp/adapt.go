package exp

import (
	"encoding/json"
	"fmt"

	"dynprof/internal/adapt"
	"dynprof/internal/apps"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
)

// Defaults for AdaptSpec's zero fields.
const (
	// DefaultAdaptCPUs is the job size of the adapt sweep: large enough
	// for real communication, small enough that the 4-apps × 5-budgets
	// grid stays a quick sweep.
	DefaultAdaptCPUs = 4
	// DefaultAdaptBudget is the canonical overhead target.
	DefaultAdaptBudget = 0.05
)

// adaptBudgets is the budget axis of the adapt figure, in percent.
var adaptBudgets = []int{1, 2, 5, 10, 20}

// adaptArgs gives each kernel an iteration-rich deck: the controller needs
// sync epochs to converge in, so the decks trade per-iteration volume for
// iteration count (smg98's tolerance is pushed down so the solver cannot
// converge out of its iteration budget early).
var adaptArgs = map[string]map[string]int{
	"smg98":   {"nx": 10, "ny": 10, "nz": 10, "iters": 24, "tolexp": 12},
	"sppm":    {"nx": 6, "ny": 6, "nz": 6, "steps": 16},
	"sweep3d": {"nx": 32, "ny": 12, "nz": 12, "iters": 24},
	"umt98":   {"zones": 128, "angles": 12, "iters": 24},
}

// AdaptSpec describes one adaptive-instrumentation cell: a fully
// instrumented kernel run under the internal/adapt feedback controller at
// a given overhead budget. It is the harness's one way to run a cell
// under the controller; RunSpec takes only the static Table 3 policies.
type AdaptSpec struct {
	// App names a registered ASCI kernel.
	App string
	// Budget is the target removable-overhead fraction
	// (0 = DefaultAdaptBudget).
	Budget float64
	// CPUs is the number of MPI ranks or OpenMP threads
	// (0 = DefaultAdaptCPUs).
	CPUs int
	// Machine is the simulated platform (nil = the IBM Power3 cluster).
	Machine *machine.Config
	// Args overrides the input deck (nil = the adapt sweep's
	// iteration-rich deck for App).
	Args map[string]int
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s AdaptSpec) norm() AdaptSpec {
	if s.Budget == 0 {
		s.Budget = DefaultAdaptBudget
	}
	if s.CPUs == 0 {
		s.CPUs = DefaultAdaptCPUs
	}
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	if s.Args == nil {
		s.Args = adaptArgs[s.App]
	}
	return s
}

// Key canonicalises the spec (defaults resolved first). Every cell folds
// one sync crossing into each controller epoch.
func (s AdaptSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("adapt|%s|budget=%g|epoch=1|cpus=%d|%s|%s|seed=%d%s",
		n.App, n.Budget, n.CPUs, n.Machine.Name, argsKey(n.Args), n.Seed, faultKey(n.Machine))
}

func (s AdaptSpec) runCell(bud des.Budget) (cellResult, error) { return runAdaptCell(s, bud, nil) }

func (s AdaptSpec) tapeKey() string {
	n := s.norm()
	if !n.Machine.FaultPlan().MovesTimeOnly() {
		return ""
	}
	return tapeTuple(n.App, n.CPUs, n.Machine, n.Args, n.Seed)
}

func (s AdaptSpec) runTaped(bud des.Budget, tp *tape.Tape) (cellResult, error) {
	return runAdaptCell(s, bud, tp)
}

func (AdaptSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[AdaptResult](b) }

// AdaptResult is one measured adaptive run.
type AdaptResult struct {
	App    string
	Budget float64
	CPUs   int
	// Elapsed is the main computation's virtual execution time.
	Elapsed des.Time
	// Epochs is how many controller epochs were measured.
	Epochs int
	// Achieved is the converged removable-overhead fraction (mean of the
	// final three epochs); the controller's success metric.
	Achieved float64
	// LastOverhead is the final epoch's removable-overhead fraction.
	LastOverhead float64
	// Retained is the fraction of probe firings whose events were kept.
	Retained float64
	// Floor is the unavoidable lookup-cost fraction no deactivation can
	// reclaim (why Full-Off never reaches the uninstrumented time).
	Floor float64
	// ActiveProbes / TotalProbes describe the final activation table.
	ActiveProbes int
	TotalProbes  int
	// Deactivated / Reactivated count controller actions applied.
	Deactivated int
	Reactivated int
	// TraceBytes is the trace volume the run produced.
	TraceBytes int
	// Events is the number of instrumentation events recorded.
	Events uint64
	// Faults is the run's fault-event stream (empty without a plan).
	Faults []fault.Event
}

func (r AdaptResult) stats() (des.Time, uint64, []fault.Event) { return r.Elapsed, r.Events, r.Faults }

// runAdaptCell executes one adaptive cell under a DES budget, recording
// into or replaying from the application's tape tp (nil: live): a dynprof
// session over a fully instrumented target, with the adapt controller
// attached before start. An aborted run (budget trip, proc panic) tears
// the session down host-side.
func runAdaptCell(spec AdaptSpec, bud des.Budget, tp *tape.Tape) (AdaptResult, error) {
	spec = spec.norm()
	res := AdaptResult{App: spec.App, Budget: spec.Budget, CPUs: spec.CPUs}
	app, err := apps.Get(spec.App)
	if err != nil {
		return res, err
	}
	cfg := core.Config{
		Machine:   spec.Machine,
		App:       app,
		BuildOpts: guide.BuildOpts{TraceAPI: true, StaticInstrument: true},
		Procs:     spec.CPUs,
		Args:      spec.Args,
		CountOnly: true,
		Tape:      tp,
	}
	var rt *adapt.Runtime
	body := func(p *des.Proc, ss *core.Session) (err error) {
		if rt, err = adapt.Attach(p, ss, adapt.Config{Budget: spec.Budget}); err != nil {
			return err
		}
		ss.Start(p)
		ss.Quit(p)
		return nil
	}
	res.Faults, err = sessionCell(spec.Seed, bud, cfg, body, func(ss *core.Session) {
		res.Elapsed, res.TraceBytes = ss.Job().MainElapsed(), traceBytes(ss.Job())
	})
	if err != nil {
		return res, err
	}
	sum := rt.Summary()
	res.Epochs = sum.Epochs
	res.Achieved = sum.Achieved
	res.LastOverhead = sum.LastOverhead
	res.Retained = sum.Retained
	res.Floor = sum.Floor
	res.ActiveProbes = sum.ActiveProbes
	res.TotalProbes = sum.TotalProbes
	res.Deactivated = sum.Deactivated
	res.Reactivated = sum.Reactivated
	res.Events = uint64(sum.Recorded)
	return res, nil
}

// planAdapt enumerates the adapt figure: for each kernel, the achieved
// removable overhead and the retained-event fraction (both in percent)
// across the budget axis. Both series of an app share one cell per
// budget, so the Runner executes each run exactly once. opts.MaxCPUs
// truncates the budget axis (its percent values double as the x
// coordinate).
func planAdapt(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Adaptive instrumentation: achieved overhead and retained events vs budget",
		XLabel: "Budget (%)",
		YLabel: "Percent",
	}}
	for _, name := range apps.Names() {
		ohSeries := len(plan.fig.Series)
		plan.fig.Series = append(plan.fig.Series,
			Series{Label: name + " overhead%"}, Series{Label: name + " retained%"})
		for _, pct := range opts.cap(adaptBudgets) {
			spec := AdaptSpec{App: name, Budget: float64(pct) / 100, Machine: opts.Machine, Seed: opts.seed()}
			plan.cells = append(plan.cells, planCell{
				series: ohSeries,
				cpus:   pct,
				spec:   spec,
				value:  func(v cellResult) float64 { return v.(AdaptResult).Achieved * 100 },
			})
			plan.cells = append(plan.cells, planCell{
				series: ohSeries + 1,
				cpus:   pct,
				spec:   spec,
				value:  func(v cellResult) float64 { return v.(AdaptResult).Retained * 100 },
			})
		}
	}
	return plan, nil
}
