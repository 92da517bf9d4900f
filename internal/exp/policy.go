// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Sections 4 and 5) as deterministic
// simulation runs, producing labelled data series that the cmd/experiments
// tool and the repository's benchmarks render.
package exp

import (
	"fmt"
	"strings"

	"dynprof/internal/adapt"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
	"dynprof/internal/vt"
)

// PolicySpec is a first-class instrumentation policy: what Table 3 lists
// as a closed enumeration is an open interface, so a policy can carry
// parameters (Adaptive's budget) and its own execution strategy. The
// interface is sealed — run is unexported because cell execution belongs
// to the harness — but every policy is addressable by its canonical Key,
// which feeds RunSpec.Key and the result journal exactly as the static
// names always did.
type PolicySpec interface {
	// Key canonicalises the policy: two policies with equal keys describe
	// the same deterministic run. Static policies use their Table 3 names
	// ("Full", "Full-Off", ...), so pre-existing spec keys are unchanged.
	Key() string
	// Description reproduces (or extends) Table 3's description column.
	Description() string
	// BuildOpts maps the policy to its compile-time configuration.
	BuildOpts(app *guide.App) guide.BuildOpts
	// run executes one experiment cell under this policy, recording into
	// or replaying from the application's tape tp (nil: live; see
	// guide.LaunchOpts.Tape).
	run(spec RunSpec, app *guide.App, bud des.Budget, tp *tape.Tape) (Result, error)
}

// StaticPolicy is one of Table 3's five static instrumentation policies:
// the configuration is fixed before the run and never changes.
type StaticPolicy string

// The instrumentation policies of Table 3.
const (
	// Full: all functions are statically instrumented.
	Full StaticPolicy = "Full"
	// FullOff: all functions are statically instrumented but disabled
	// using the configuration file.
	FullOff StaticPolicy = "Full-Off"
	// Subset: all functions are statically instrumented with only an
	// important subset left active.
	Subset StaticPolicy = "Subset"
	// None: no subroutine instrumentation is inserted.
	None StaticPolicy = "None"
	// Dynamic: the dynprof tool is used to dynamically instrument the
	// same functions used by Subset.
	Dynamic StaticPolicy = "Dynamic"
)

// String names the policy as Table 3 does.
func (p StaticPolicy) String() string { return string(p) }

// Key canonicalises the policy for spec keys; identical to the Table 3
// name, so keys minted before the PolicySpec interface still match.
func (p StaticPolicy) Key() string { return string(p) }

// Description reproduces Table 3's description column.
func (p StaticPolicy) Description() string {
	switch p {
	case Full:
		return "All functions are statically instrumented."
	case FullOff:
		return "All functions are statically instrumented but disabled using the configuration file."
	case Subset:
		return "All functions are statically instrumented with only an important subset left active."
	case None:
		return "No subroutine instrumentation is inserted."
	case Dynamic:
		return "The dynprof tool is used to dynamically instrument the same functions used by Subset."
	default:
		return ""
	}
}

// AllPolicies lists Table 3's policies in presentation order.
func AllPolicies() []StaticPolicy {
	return []StaticPolicy{Full, FullOff, Subset, None, Dynamic}
}

// PoliciesFor returns the policies evaluated for an application. Sweep3d
// has no Subset version: "since there are negligible differences ... we
// decided that a Subset version was unnecessary".
func PoliciesFor(app *guide.App) []StaticPolicy {
	if app.Name == "sweep3d" {
		return []StaticPolicy{Full, FullOff, None, Dynamic}
	}
	return AllPolicies()
}

// subsetConfig builds the VT configuration deactivating everything but the
// application's important subset.
func subsetConfig(app *guide.App) *vt.Config {
	var b strings.Builder
	b.WriteString("SYMBOL * OFF\n")
	for _, s := range app.Subset {
		fmt.Fprintf(&b, "SYMBOL %s ON\n", s)
	}
	return vt.MustParseConfig(b.String())
}

// BuildOpts maps the policy to its compile-time configuration.
func (p StaticPolicy) BuildOpts(app *guide.App) guide.BuildOpts {
	opts := guide.BuildOpts{TraceMPI: true, TraceOMP: true}
	switch p {
	case Full:
		opts.StaticInstrument = true
	case FullOff:
		opts.StaticInstrument = true
		opts.Config = vt.MustParseConfig("SYMBOL * OFF\n")
	case Subset:
		opts.StaticInstrument = true
		opts.Config = subsetConfig(app)
	case None, Dynamic:
		// No compiled-in subroutine instrumentation.
	}
	return opts
}

// run executes one static-policy cell: Dynamic spawns dynprof to
// instrument the subset at startup; every other policy is a plain
// instrumented launch.
func (p StaticPolicy) run(spec RunSpec, app *guide.App, bud des.Budget, tp *tape.Tape) (Result, error) {
	res := Result{App: app.Name, Policy: p.Key(), CPUs: spec.CPUs}
	switch p {
	case Full, FullOff, Subset, None, Dynamic:
	default:
		return res, fmt.Errorf("exp: unknown static policy %q", string(p))
	}
	if p == Dynamic {
		return runDynamic(spec.machine(), app, spec.CPUs, spec.Args, spec.Seed, bud, tp)
	}
	bin, err := guide.Build(app, p.BuildOpts(app))
	if err != nil {
		return res, err
	}
	s := des.NewScheduler(spec.Seed, des.WithBudget(bud))
	j, err := guide.Launch(s, spec.machine(), bin, guide.LaunchOpts{Procs: spec.CPUs, Args: spec.Args, CountOnly: true, Tape: tp})
	if err != nil {
		return res, err
	}
	// The cell's trace collector dies with the cell: recycle its chunks for
	// the next cell in the sweep.
	defer j.Collector().Release()
	if err := runScheduler(s); err != nil {
		return res, err
	}
	res.Elapsed = j.MainElapsed()
	for i := range j.Processes() {
		res.TraceBytes += j.VT(i).TraceBytes()
	}
	res.Faults = j.Faults()
	return res, nil
}

// Adaptive is the feedback policy the paper could only gesture at: the
// target is fully instrumented, a sync point is dynamically inserted at
// the application's declared safe point, and the internal/adapt controller
// deactivates (and re-inserts) probes every epoch to hold the removable
// instrumentation overhead at Budget.
type Adaptive struct {
	// Budget is the target removable-overhead fraction (e.g. 0.05).
	Budget float64
	// Epoch is the number of sync-point crossings folded into one
	// controller epoch (0 = 1).
	Epoch int
}

func (a Adaptive) norm() Adaptive {
	if a.Epoch == 0 {
		a.Epoch = 1
	}
	return a
}

// Key canonicalises the policy, parameters included: two Adaptive values
// with the same budget and epoch length share cells.
func (a Adaptive) Key() string {
	n := a.norm()
	return fmt.Sprintf("Adaptive(budget=%g,epoch=%d)", n.Budget, n.Epoch)
}

// String names the policy for labels and logs.
func (a Adaptive) String() string { return a.Key() }

// Description extends Table 3's column.
func (a Adaptive) Description() string {
	return fmt.Sprintf("All functions are statically instrumented; a feedback controller deactivates the most expensive probes each sync epoch to hold overhead at %.0f%%.", a.Budget*100)
}

// BuildOpts instruments everything: the controller needs probes to shed.
func (a Adaptive) BuildOpts(*guide.App) guide.BuildOpts {
	return guide.BuildOpts{TraceMPI: true, TraceOMP: true, StaticInstrument: true}
}

// run executes one adaptive cell through the shared dynprof-session path.
func (a Adaptive) run(spec RunSpec, app *guide.App, bud des.Budget, tp *tape.Tape) (Result, error) {
	n := a.norm()
	res, _, err := runAdaptiveSession(spec.machine(), app, spec.CPUs, spec.Args, spec.Seed, bud,
		adapt.Config{Budget: n.Budget, EpochEvery: n.Epoch}, tp)
	res.Policy = a.Key()
	return res, err
}

// Result is one measured run.
type Result struct {
	App string
	// Policy is the canonical policy key (PolicySpec.Key), e.g. "Full".
	Policy  string
	CPUs    int
	Elapsed des.Time
	// CreateAndInstrument is filled for Dynamic runs (Figure 9).
	CreateAndInstrument des.Time
	// TraceBytes is the volume of trace data the run produced.
	TraceBytes int
	// Faults is the run's structured fault-event stream, in time order;
	// empty when the machine carries no fault plan.
	Faults []fault.Event
}

func (r Result) stats() (des.Time, uint64, []fault.Event) { return r.Elapsed, 0, r.Faults }

// runDynamic measures the Dynamic policy: dynprof spawns the target,
// instruments the application's subset before the main computation (via
// insert-file, as Section 4.2 describes) and detaches. An aborted run
// (budget trip, proc panic) tears the session down host-side.
func runDynamic(mach *machine.Config, app *guide.App, cpus int, args map[string]int, seed uint64, bud des.Budget, tp *tape.Tape) (Result, error) {
	res := Result{App: app.Name, Policy: Dynamic.Key(), CPUs: cpus}
	s := des.NewScheduler(seed, des.WithBudget(bud))
	script := "insert-file subset.list\nstart\nquit\n"
	var ss *core.Session
	var sessErr error
	defer func() {
		if ss != nil && ss.Job() != nil {
			ss.Job().Collector().Release()
		}
	}()
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, sessErr = core.NewSession(p, core.Config{
			Machine:   mach,
			App:       app,
			Procs:     cpus,
			Args:      args,
			CountOnly: true,
			Files:     map[string]string{"subset.list": strings.Join(app.Subset, "\n")},
			Tape:      tp,
		})
		if sessErr != nil {
			return
		}
		sessErr = ss.RunScript(p, strings.NewReader(script))
	})
	if err := runScheduler(s); err != nil {
		if ss != nil {
			ss.Teardown()
			res.Faults = ss.Faults()
		}
		return res, err
	}
	if sessErr != nil {
		return res, sessErr
	}
	res.Elapsed = ss.Job().MainElapsed()
	res.CreateAndInstrument = ss.CreateAndInstrumentTime()
	for i := range ss.Job().Processes() {
		res.TraceBytes += ss.Job().VT(i).TraceBytes()
	}
	res.Faults = ss.Faults()
	return res, nil
}
