package exp

import (
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"strings"

	"dynprof/internal/apps"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
	"dynprof/internal/vt"
)

// faultKey renders a machine's fault plan for spec keys: the empty string
// for fault-free machines, so every pre-fault key (and its memo cache
// entry) is byte-identical to before the fault model existed.
func faultKey(m *machine.Config) string {
	plan := m.FaultPlan()
	if plan.IsZero() {
		return ""
	}
	return "|" + plan.Key()
}

// DefaultSeed is the simulation seed used when none is requested. Every
// figure of the paper is regenerated with this seed unless overridden.
const DefaultSeed uint64 = 2003

// The Figure 8 probe shape: "averaged over 16 calls" against a 64-entry
// function table.
const (
	confSyncReps  = 16
	confSyncFuncs = 64
)

// cellSpec is the common shape of a runnable experiment descriptor: every
// spec canonicalises to a Key for memoization and knows how to execute
// itself inside a fresh deterministic simulation.
type cellSpec interface {
	// Key canonicalises the spec: two specs with equal keys describe the
	// same deterministic run and may share one execution. It starts with
	// "<kind>|", the kind naming the result type (and its journal field).
	Key() string
	// runCell executes the cell under a DES budget (zero = unlimited) and
	// returns its typed result. The budget is harness configuration, not
	// spec identity: it never feeds the key, because a budget that is not
	// hit leaves the run byte-identical.
	runCell(bud des.Budget) (cellResult, error)
	// decode rebuilds the spec's typed result from its journaled JSON.
	decode(raw json.RawMessage) (cellResult, error)
}

// cellResult is the contract every typed cell result implements: what
// the Runner reports for a finished cell besides its plotted value.
type cellResult interface {
	// stats returns the simulated time the cell covered, its event count
	// (0 when the result reports none) and its fault-event stream.
	stats() (virt des.Time, events uint64, faults []fault.Event)
}

// decodeAs decodes a journaled result of type T.
func decodeAs[T cellResult](raw json.RawMessage) (cellResult, error) {
	var v T
	err := json.Unmarshal(raw, &v)
	return v, err
}

// RunSpec is a first-class descriptor of one experiment cell: a single
// deterministic DES run of an application under an instrumentation policy
// on a CPU count. The zero values select the defaults documented per
// field; Seed is taken literally (seed 0 is a valid seed — the figure
// harness fills in DefaultSeed via Options, not here).
type RunSpec struct {
	// App names a registered ASCI kernel (see internal/apps). Ignored
	// when AppDef is set.
	App string
	// AppDef optionally supplies a custom application definition instead
	// of a registry lookup. Its Name feeds the spec key, so distinct
	// custom apps must use distinct names for correct memoization.
	AppDef *guide.App
	// Policy is the Table 3 instrumentation policy (zero = Full).
	Policy StaticPolicy
	// CPUs is the number of MPI ranks (or OpenMP threads).
	CPUs int
	// Machine is the simulated platform (nil = the IBM Power3 cluster).
	// The config's Name feeds the spec key, so custom presets must use
	// distinct names for correct memoization.
	Machine *machine.Config
	// Args overrides the application's input deck.
	Args map[string]int
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

// app resolves the application definition.
func (s RunSpec) app() (*guide.App, error) {
	if s.AppDef != nil {
		return s.AppDef, nil
	}
	return apps.Get(s.App)
}

// machine resolves the platform.
func (s RunSpec) machine() *machine.Config {
	if s.Machine != nil {
		return s.Machine
	}
	return machine.MustNew("ibm-power3")
}

// policy resolves the instrumentation policy (zero = Full).
func (s RunSpec) policy() StaticPolicy {
	if s.Policy == "" {
		return Full
	}
	return s.Policy
}

// Key canonicalises the spec for dedup/caching: identical keys describe
// byte-identical deterministic runs.
func (s RunSpec) Key() string {
	name := s.App
	if s.AppDef != nil {
		name = s.AppDef.Name
	}
	return fmt.Sprintf("run|%s|%s|cpus=%d|%s|%s|seed=%d%s",
		name, s.policy().Key(), s.CPUs, s.machine().Name, argsKey(s.Args), s.Seed, faultKey(s.machine()))
}

func (s RunSpec) runCell(bud des.Budget) (cellResult, error) { return runSpecCell(s, bud, nil) }

// tapeKey: a registered kernel under a Table 3 policy, on a machine whose
// faults only move time.
func (s RunSpec) tapeKey() string {
	if s.AppDef != nil || !slices.Contains(AllPolicies(), s.policy()) || !s.machine().FaultPlan().MovesTimeOnly() {
		return "" // an unknown policy runs live, which reports it
	}
	return tapeTuple(s.App, s.CPUs, s.machine(), s.Args, s.Seed)
}

func (s RunSpec) runTaped(bud des.Budget, tp *tape.Tape) (cellResult, error) {
	return runSpecCell(s, bud, tp)
}

func (RunSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[Result](b) }

// argsKey renders an input deck in sorted-key order.
func argsKey(args map[string]int) string {
	if len(args) == 0 {
		return "args{}"
	}
	keys := make([]string, 0, len(args))
	for k := range args {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteString("args{")
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s=%d", k, args[k])
	}
	b.WriteByte('}')
	return b.String()
}

// Run executes one experiment cell described by spec and returns its
// measurements. Every run happens inside a fresh scheduler, so concurrent
// Run calls on distinct specs are safe.
func Run(spec RunSpec) (Result, error) { return runSpecCell(spec, des.Budget{}, nil) }

// runSpecCell is Run with a DES budget attached (the Runner's supervised
// path); a Proc panic surfaces as a *des.ProcPanicError return. It records
// into or replays from the application's tape tp (nil: live).
func runSpecCell(spec RunSpec, bud des.Budget, tp *tape.Tape) (Result, error) {
	app, err := spec.app()
	if err != nil {
		return Result{}, err
	}
	return spec.policy().run(spec, app, bud, tp)
}

// ConfSyncSpec describes one VT_confsync probe cell (Figure 8): the mean
// cost over confSyncReps repetitions of calling ConfSync on a CPUs-rank
// world, with or without staged configuration changes and with or without
// the runtime-statistics dump.
type ConfSyncSpec struct {
	// Machine is the simulated platform (nil = the IBM Power3 cluster).
	Machine *machine.Config
	// CPUs is the MPI world size.
	CPUs int
	// Changes is the number of configuration changes staged per repetition
	// (0 = none, the "No Change" variant).
	Changes int
	// WriteStats requests the runtime-statistics dump on every ConfSync.
	WriteStats bool
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s ConfSyncSpec) norm() ConfSyncSpec {
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first).
func (s ConfSyncSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("confsync|cpus=%d|reps=%d|nfuncs=%d|changes=%d|stats=%t|%s|seed=%d%s",
		n.CPUs, confSyncReps, confSyncFuncs, n.Changes, n.WriteStats, n.Machine.Name, n.Seed, faultKey(n.Machine))
}

func (s ConfSyncSpec) runCell(bud des.Budget) (cellResult, error) { return runConfSyncCell(s, bud) }

func (ConfSyncSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[ConfSyncResult](b) }

// ConfSyncResult is one measured ConfSync probe.
type ConfSyncResult struct {
	CPUs int
	// Mean is the per-call cost averaged over the spec's repetitions.
	Mean des.Time
	// Faults is the probe run's fault-event stream (empty without a plan).
	Faults []fault.Event
}

// stats reports the per-call Mean as the cell's simulated time.
func (r ConfSyncResult) stats() (des.Time, uint64, []fault.Event) { return r.Mean, 0, r.Faults }

// runConfSyncCell executes one VT_confsync probe cell under a DES budget.
func runConfSyncCell(spec ConfSyncSpec, bud des.Budget) (ConfSyncResult, error) {
	spec = spec.norm()
	res := ConfSyncResult{CPUs: spec.CPUs}
	app := &guide.App{
		Name:  "csync",
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: "cs_compute", Size: 30}},
		Main:  nil,
	}
	var total des.Time
	app.Main = func(c *guide.Ctx) {
		compute := c.Fn("cs_compute")
		c.MPI.Init()
		// Populate the library with a realistic function table and some
		// statistics content.
		for i := 0; i < confSyncFuncs; i++ {
			id := c.VT.FuncDef(fmt.Sprintf("func_%03d", i))
			c.VT.Begin(c.T, id)
			c.VT.End(c.T, id)
		}
		for rep := 0; rep < confSyncReps; rep++ {
			c.Call(compute, func() { c.T.Work(400_000) })
			if c.MPI.Rank() == 0 && spec.Changes > 0 {
				chs := make([]vt.Change, spec.Changes)
				for i := range chs {
					chs[i] = vt.Change{Pattern: fmt.Sprintf("func_%03d", (rep+i)%confSyncFuncs), Active: rep%2 == 0}
				}
				c.VT.QueueChanges(chs)
			}
			c.T.Sync()
			t0 := c.T.Now()
			c.VT.ConfSync(c.MPI, spec.WriteStats, nil)
			c.T.Sync()
			if c.MPI.Rank() == 0 {
				total += c.T.Now() - t0
			}
		}
		c.MPI.Finalize()
	}
	opts := guide.LaunchOpts{Procs: spec.CPUs, CountOnly: true}
	err := launchCell(spec.Seed, bud, spec.Machine, app, guide.BuildOpts{}, opts, func(j *guide.Job) error {
		if !j.Done() {
			return fmt.Errorf("exp: confsync probe did not finish")
		}
		res.Mean, res.Faults = total/confSyncReps, j.Faults()
		return nil
	})
	return res, err
}

// hybridArgs is the Section 5.1 hybrid deck: a short Sppm run.
var hybridArgs = map[string]int{"nx": 8, "ny": 8, "nz": 8, "steps": 6}

// HybridSpec describes one Section 5.1 hybrid cell: an Sppm run whose
// VT_confsync safe points are (optionally) inserted dynamically by
// dynprof before the main computation starts.
type HybridSpec struct {
	// WithPoints inserts a VT_confsync call gate at sppm_StepDriver.
	WithPoints bool
	// CPUs is the number of MPI ranks (0 = 4).
	CPUs int
	// Machine is the simulated platform (nil = the IBM Power3 cluster).
	Machine *machine.Config
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

func (s HybridSpec) norm() HybridSpec {
	if s.CPUs == 0 {
		s.CPUs = 4
	}
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first).
func (s HybridSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("hybrid|points=%t|cpus=%d|%s|%s|seed=%d%s",
		n.WithPoints, n.CPUs, n.Machine.Name, argsKey(hybridArgs), n.Seed, faultKey(n.Machine))
}

func (s HybridSpec) runCell(bud des.Budget) (cellResult, error) { return runHybridCell(s, bud) }

func (HybridSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[HybridResult](b) }

// HybridResult is one measured hybrid run.
type HybridResult struct {
	CPUs int
	// Elapsed is the main computation's virtual execution time.
	Elapsed des.Time
	// CreateAndInstrument is dynprof's startup cost for the run.
	CreateAndInstrument des.Time
	// Faults is the run's fault-event stream (empty without a plan).
	Faults []fault.Event
}

func (r HybridResult) stats() (des.Time, uint64, []fault.Event) { return r.Elapsed, 0, r.Faults }

// runHybridCell executes one hybrid cell under a DES budget: dynprof
// spawns Sppm, optionally plants the confsync safe point, starts the
// target and detaches. An aborted run (budget trip, proc panic) tears the
// dynprof session down host-side so the failure report still carries its
// fault stream.
func runHybridCell(spec HybridSpec, bud des.Budget) (HybridResult, error) {
	spec = spec.norm()
	res := HybridResult{CPUs: spec.CPUs}
	app, err := apps.Get("sppm")
	if err != nil {
		return res, err
	}
	cfg := core.Config{
		Machine:   spec.Machine,
		App:       app,
		Procs:     spec.CPUs,
		Args:      hybridArgs,
		CountOnly: true,
	}
	body := func(p *des.Proc, ss *core.Session) error {
		if spec.WithPoints {
			if err := ss.InsertConfSyncAt(p, "sppm_StepDriver"); err != nil {
				return err
			}
		}
		ss.Start(p)
		ss.Quit(p)
		return nil
	}
	res.Faults, err = sessionCell(spec.Seed, bud, cfg, body, func(ss *core.Session) {
		res.Elapsed, res.CreateAndInstrument = ss.Job().MainElapsed(), ss.CreateAndInstrumentTime()
	})
	return res, err
}
