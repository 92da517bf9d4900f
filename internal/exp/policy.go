// Package exp is the experiment harness: it reproduces every table and
// figure of the paper's evaluation (Sections 4 and 5) as deterministic
// simulation runs, producing labelled data series that the cmd/experiments
// tool and the repository's benchmarks render.
package exp

import (
	"fmt"
	"slices"
	"strings"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/tape"
	"dynprof/internal/vt"
)

// StaticPolicy is one of Table 3's five static instrumentation policies:
// the configuration is fixed before the run and never changes. Adaptive
// control, this repository's extension, is a cell kind of its own
// (AdaptSpec), not a policy.
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

// Key canonicalises the policy for spec keys: its Table 3 name.
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
	if !slices.Contains(AllPolicies(), p) {
		return res, fmt.Errorf("exp: unknown static policy %q", string(p))
	}
	if p == Dynamic {
		return runDynamic(spec, app, bud, tp)
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

// Result is one measured run.
type Result struct {
	App string
	// Policy is the Table 3 name of the run's policy, e.g. "Full".
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
func runDynamic(spec RunSpec, app *guide.App, bud des.Budget, tp *tape.Tape) (Result, error) {
	res := Result{App: app.Name, Policy: Dynamic.Key(), CPUs: spec.CPUs}
	s := des.NewScheduler(spec.Seed, des.WithBudget(bud))
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
			Machine:   spec.machine(),
			App:       app,
			Procs:     spec.CPUs,
			Args:      spec.Args,
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
