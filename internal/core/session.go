// Package core implements dynprof, the paper's prototype dynamic
// instrumenter: a DPCL-based tool that spawns a target MPI or OpenMP
// application, defers instrumentation until the tracing library is safely
// initialised (the Figure 6 callback protocol), and inserts or removes
// Vampirtrace subroutine entry/exit probes while the target executes. It
// also implements the monitoring-tool side of dynamic control of
// instrumentation (Section 5).
package core

import (
	"fmt"
	"io"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
	"dynprof/internal/tape"
	"dynprof/internal/vt"
)

// CallbackTag identifies the DPCL_callback message the init-protocol
// snippet sends once every process has passed library initialisation.
const CallbackTag = "dynvt-init-done"

// Config describes a dynprof session: the target application, how to
// build and place it, and where tool output goes.
type Config struct {
	// Machine is the cluster to run on.
	Machine *machine.Config
	// App is the target application.
	App *guide.App
	// BuildOpts compiles the target; dynamic instrumentation normally
	// uses an uninstrumented build (the Dynamic policy).
	BuildOpts guide.BuildOpts
	// Procs is the MPI rank count, or the OpenMP thread count.
	Procs int
	// Args overrides the application's input deck.
	Args map[string]int
	// CountOnly drops trace event payloads (see guide.LaunchOpts).
	CountOnly bool
	// Tape records the target's application operations into a blank
	// tape, or runs the target from a finished run's tape (see
	// guide.LaunchOpts). The tool's own work is never on a tape.
	Tape *tape.Tape
	// Output receives tool messages (help text, errors); may be nil.
	Output io.Writer
	// Files holds the contents of script-visible files, keyed by name,
	// for the insert-file and remove-file commands.
	Files map[string]string
	// OnSession, when non-nil, observes the Session as soon as the struct
	// exists — before the target is launched or DPCL attached. Supervisors
	// use it to keep a Teardown handle for sessions whose NewSession is
	// aborted mid-flight by a scheduler abort.
	OnSession func(*Session)
}

// Session is a live dynprof instance. All methods must be called from the
// instrumenter's own simulation process (the one passed to NewSession).
type Session struct {
	cfg Config
	s   *des.Scheduler
	sys *dpcl.System
	cl  *dpcl.Client
	bin *guide.Binary
	job *guide.Job
	tf  *Timefile
	out io.Writer

	pending     []string // inserts queued until the init callback
	pendingConf []string // hybrid confsync points queued for startup
	installed   map[string][]*dpcl.Probe
	spins       []*des.Gate
	initProbe   []*dpcl.Probe
	onTrace     func(events int) // observes probe-generated trace events
	started     bool
	ready       bool // init callback handled, spins released
	quit        bool

	// recoverObs observes each completed crash recovery (see
	// SetRecoverObserver); recoveries counts them; repairSeq names the
	// spawned repair processes deterministically.
	recoverObs func(node, replayed int, latency des.Time)
	recoveries int
	repairSeq  int

	sessionStart des.Time
	readyAt      des.Time
}

// NewSession spawns the target application (held at its first
// instruction), attaches DPCL daemons to every process, and plants the
// initialisation-callback probe at the end of MPI_Init (or VT_init for
// OpenMP targets) — "this instrumentation is inserted immediately upon
// loading the application".
func NewSession(p *des.Proc, cfg Config) (*Session, error) {
	if cfg.Output == nil {
		cfg.Output = io.Discard
	}
	s := p.Scheduler()
	bin, err := guide.Build(cfg.App, cfg.BuildOpts)
	if err != nil {
		return nil, err
	}
	ss := &Session{
		cfg:          cfg,
		s:            s,
		sys:          dpcl.NewSystem(s, cfg.Machine),
		bin:          bin,
		tf:           NewTimefile(),
		out:          cfg.Output,
		installed:    make(map[string][]*dpcl.Probe),
		sessionStart: p.Now(),
	}
	if cfg.OnSession != nil {
		cfg.OnSession(ss)
	}
	stop := ss.tf.Begin("create", p.Now())

	job, err := guide.Launch(s, cfg.Machine, bin, guide.LaunchOpts{
		Procs:     cfg.Procs,
		Hold:      true,
		Args:      cfg.Args,
		CountOnly: cfg.CountOnly,
		Tape:      cfg.Tape,
	})
	if err != nil {
		return nil, err
	}
	ss.job = job
	p.Advance(dpcl.CreateCost(len(job.Placement().Nodes()), len(job.Processes())))
	stop(p.Now())

	stop = ss.tf.Begin("attach", p.Now())
	ss.cl = ss.sys.Connect("dynprof")
	ss.cl.Attach(p, job.Processes())
	ss.armAutoRecover()
	stop(p.Now())

	stop = ss.tf.Begin("init-probe", p.Now())
	if err := ss.insertInitProtocol(p); err != nil {
		return nil, err
	}
	stop(p.Now())
	return ss, nil
}

// Job exposes the launched target.
func (ss *Session) Job() *guide.Job { return ss.job }

// System exposes the DPCL installation the session instruments through
// (shared between sessions in multi-tenant configurations).
func (ss *Session) System() *dpcl.System { return ss.sys }

// Faults merges the fault events of the target job and of the DPCL
// control network, in time order; empty on fault-free machines.
func (ss *Session) Faults() []fault.Event {
	return fault.MergeEvents(ss.job.Faults(), ss.sys.Faults().Events())
}

// Timefile returns the tool's internal timing record.
func (ss *Session) Timefile() *Timefile { return ss.tf }

// Ready reports whether the init callback has been handled and the target
// released into its main computation.
func (ss *Session) Ready() bool { return ss.ready }

// insertInitProtocol plants the Figure 6 snippet at the exit of MPI_Init
// (with barriers) or VT_init (without: VT_init runs in a guaranteed
// single-threaded region at the beginning of main).
func (ss *Session) insertInitProtocol(p *des.Proc) error {
	isMPI := ss.bin.App().Lang.IsMPI()
	symbol := "VT_init"
	if isMPI {
		symbol = "MPI_Init"
	}
	ss.spins = make([]*des.Gate, len(ss.job.Processes()))
	for i := range ss.spins {
		ss.spins[i] = des.NewGate(fmt.Sprintf("dynvt-spin.%d", i), false)
	}
	probe, err := ss.cl.InstallProbe(p, ss.job.Processes(), symbol, image.ExitPoint, 0,
		func(pr *proc.Process) image.Snippet {
			rank := pr.Rank()
			spin := ss.spins[rank]
			if isMPI {
				return func(ec image.ExecCtx) {
					m := ss.job.World().Rank(rank)
					t := m.Thread()
					// MPI_Barrier: synchronise after every rank's MPI_Init.
					m.Barrier()
					// DPCL_callback: one message tells the instrumenter
					// every process has reached the safe point.
					if rank == 0 {
						ss.cl.PostCallback(CallbackTag, rank)
					}
					// DYNVT_spin: hold until the instrumenter releases us.
					t.Block(func(dp *des.Proc) { dp.Await(spin) })
					// MPI_Barrier: re-synchronise, since the spin variable
					// is reset with differing per-process delays.
					m.Barrier()
				}
			}
			return func(ec image.ExecCtx) {
				ss.cl.PostCallback(CallbackTag, rank)
				ss.job.Processes()[0].Threads()[0].Block(func(dp *des.Proc) { dp.Await(spin) })
			}
		})
	if err != nil {
		return err
	}
	if err := ss.cl.Activate(p, probe); err != nil {
		return err
	}
	ss.initProbe = append(ss.initProbe, probe)
	return nil
}

// Insert requests subroutine entry/exit instrumentation for the named
// functions. Before the init callback, requests are recorded and acted on
// once the callback confirms it is safe; afterwards, the target is
// suspended, patched and resumed.
func (ss *Session) Insert(p *des.Proc, funcs ...string) error {
	if !ss.ready {
		ss.pending = append(ss.pending, funcs...)
		return nil
	}
	return ss.installNow(p, true, funcs)
}

// installNow patches the named functions, optionally suspending the
// target around the patch (required once it is executing).
func (ss *Session) installNow(p *des.Proc, suspend bool, funcs []string) error {
	stop := ss.tf.Begin("instrument", p.Now())
	defer func() { stop(p.Now()) }()
	procs := ss.job.Processes()
	if suspend {
		// OpenMP targets share one image among all threads, so dynprof
		// "uses a blocking version of the DPCL suspend function"; for MPI
		// targets the suspend reaches daemons with differing delays.
		if err := ss.cl.Suspend(p, procs, true); err != nil {
			return err
		}
		defer ss.cl.Resume(p, procs)
	}
	var firstErr error
	for _, f := range funcs {
		if err := ss.installFunc(p, f); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// installFunc inserts VT_begin at f's entry and VT_end at each exit.
func (ss *Session) installFunc(p *des.Proc, f string) error {
	if len(ss.installed[f]) > 0 {
		fmt.Fprintf(ss.out, "dynprof: %s already instrumented\n", f)
		return nil
	}
	procs := ss.job.Processes()
	sym, ok := procs[0].Image().Lookup(f)
	if !ok {
		fmt.Fprintf(ss.out, "dynprof: no such function: %s\n", f)
		return fmt.Errorf("dynprof: no such function %q", f)
	}
	// The entry probe first, then one per exit: e = -1 is the entry.
	var probes []*dpcl.Probe
	for e := -1; e < len(sym.Exits); e++ {
		kind, exit, snippet := image.EntryPoint, 0, vt.BeginSnippet
		if e >= 0 {
			kind, exit, snippet = image.ExitPoint, e, vt.EndSnippet
		}
		probe, err := ss.cl.InstallProbe(p, procs, f, kind, exit, func(pr *proc.Process) image.Snippet {
			return ss.meter(snippet(ss.job.VT(ss.vtIndex(pr)).FuncDef(f)))
		})
		if err != nil {
			return err
		}
		probes = append(probes, probe)
	}
	for _, probe := range probes {
		if err := ss.cl.Activate(p, probe); err != nil {
			return err
		}
	}
	ss.installed[f] = probes
	return nil
}

// meter wraps a probe snippet with the session's trace observer: each
// Begin/End snippet execution records exactly one VT trace event, so quota
// accounting charges onTrace(1) per firing. Without an observer the snippet
// is returned unwrapped — the single-tool fast path.
func (ss *Session) meter(sn image.Snippet) image.Snippet {
	if ss.onTrace == nil {
		return sn
	}
	return func(ec image.ExecCtx) {
		sn(ec)
		ss.onTrace(1)
	}
}

// vtIndex maps a process to its library-instance index in the job.
func (ss *Session) vtIndex(pr *proc.Process) int {
	if ss.bin.App().Lang.IsMPI() {
		return pr.Rank()
	}
	return 0
}

// Remove removes the instrumentation previously inserted into the named
// functions, suspending the target around the patch if it is running.
func (ss *Session) Remove(p *des.Proc, funcs ...string) error {
	if !ss.ready {
		// Before the callback nothing is physically installed yet: a
		// remove cancels a pending insert.
		for _, f := range funcs {
			for i, q := range ss.pending {
				if q == f {
					ss.pending = append(ss.pending[:i], ss.pending[i+1:]...)
					break
				}
			}
		}
		return nil
	}
	stop := ss.tf.Begin("remove", p.Now())
	defer func() { stop(p.Now()) }()
	procs := ss.job.Processes()
	if err := ss.cl.Suspend(p, procs, true); err != nil {
		return err
	}
	defer ss.cl.Resume(p, procs)
	var firstErr error
	for _, f := range funcs {
		probes := ss.installed[f]
		if len(probes) == 0 {
			fmt.Fprintf(ss.out, "dynprof: %s is not instrumented\n", f)
			continue
		}
		for _, probe := range probes {
			if err := ss.cl.Remove(p, probe); err != nil && firstErr == nil {
				firstErr = err
			}
		}
		delete(ss.installed, f)
	}
	return firstErr
}

// ProbeCount reports the number of probes the session currently holds
// installed (entry plus exits, across all instrumented functions) — the
// quantity a per-session probe quota bounds.
func (ss *Session) ProbeCount() int {
	n := 0
	for _, probes := range ss.installed {
		n += len(probes)
	}
	return n
}

// RemoveAll removes every probe the session has installed (the eviction
// path): one suspend/patch/resume cycle over the full probe set. A session
// with nothing installed pays nothing.
func (ss *Session) RemoveAll(p *des.Proc) error {
	names := ss.Instrumented()
	if len(names) == 0 {
		return nil
	}
	return ss.Remove(p, names...)
}

// Instrumented returns the currently instrumented functions, sorted.
func (ss *Session) Instrumented() []string {
	names := make([]string, 0, len(ss.installed))
	for f := range ss.installed {
		names = append(names, f)
	}
	sort.Strings(names)
	return names
}

// Start releases the held target (the "start" command), waits for the
// initialisation callback, installs every queued insert while all
// processes spin at the safe point, and then releases the spins — each
// process's spin variable is reset after its own daemon delay, which is
// why the snippet re-synchronises with a second barrier.
func (ss *Session) Start(p *des.Proc) {
	if ss.started {
		fmt.Fprintln(ss.out, "dynprof: already started")
		return
	}
	ss.started = true
	ss.job.Release()
	ev := p.Recv(ss.cl.Events()).(dpcl.Event)
	if ev.Tag != CallbackTag {
		panic(fmt.Sprintf("dynprof: unexpected event %+v before init callback", ev))
	}
	if len(ss.pending) > 0 {
		queued := ss.pending
		ss.pending = nil
		if err := ss.installNow(p, false, queued); err != nil {
			fmt.Fprintf(ss.out, "dynprof: deferred instrumentation: %v\n", err)
		}
	}
	for _, fn := range ss.pendingConf {
		if err := ss.installConfSyncAt(p, fn); err != nil {
			fmt.Fprintf(ss.out, "dynprof: confsync point: %v\n", err)
		}
	}
	ss.pendingConf = nil
	for _, g := range ss.spins {
		g := g
		ss.s.After(ss.sys.Delay(), func() { g.Set(true) })
	}
	ss.ready = true
	ss.readyAt = p.Now()
}

// Quit detaches the instrumenter (the "quit" command). Instrumentation
// that is active remains active. A quit before start first starts the
// target so it is not orphaned at the spin.
func (ss *Session) Quit(p *des.Proc) {
	if ss.quit {
		return
	}
	if !ss.started {
		ss.Start(p)
	}
	ss.quit = true
	ss.cl.Disconnect()
}

// Teardown releases the session's host-side state after an aborted
// simulation (DES budget exhaustion, proc panic): it marks the session
// quit and disconnects the DPCL client without driving any further
// simulated work. Unlike Quit it needs no Proc — every Proc has already
// been unwound by the scheduler's abort path — so supervising harnesses
// can call it from plain host code. Idempotent, and a no-op after Quit.
// Faults() remains usable afterwards, so failure reports can carry the
// partial fault stream of the aborted run.
func (ss *Session) Teardown() {
	if ss.quit {
		return
	}
	ss.quit = true
	if ss.cl != nil {
		// cl is nil when NewSession was aborted between construction and
		// DPCL attach (an OnSession handle to a half-built session); there
		// is nothing to disconnect yet.
		ss.cl.Disconnect()
	}
}

// armAutoRecover subscribes the session to daemon restarts: each restart
// spawns a deterministic repair process that replays the client's probe
// ledger against the stale nodes, reconverging the target's instrumentation
// to the session's desired state. Never fires on fault-free machines.
func (ss *Session) armAutoRecover() {
	ss.cl.SetRestartNotify(func(node int) {
		ss.repairSeq++
		start := ss.s.Now()
		ss.s.Spawn(fmt.Sprintf("dynvt-repair.%d", ss.repairSeq), func(p *des.Proc) {
			if ss.quit {
				return // session torn down before the repair ran
			}
			replayed, err := ss.cl.Reconcile(p)
			if err != nil {
				fmt.Fprintf(ss.out, "dynprof: recovery on node %d: %v\n", node, err)
				return
			}
			if replayed > 0 {
				ss.recoveries++
				if ss.recoverObs != nil {
					ss.recoverObs(node, replayed, p.Now()-start)
				}
			}
		})
	})
}

// SetRecoverObserver installs fn, called after each completed crash
// recovery with the restarted node, the number of per-target probe
// replays, and the virtual latency from restart to reconvergence.
func (ss *Session) SetRecoverObserver(fn func(node, replayed int, latency des.Time)) {
	ss.recoverObs = fn
}

// Recoveries reports how many daemon-restart recoveries the session has
// completed.
func (ss *Session) Recoveries() int { return ss.recoveries }

// Reconcile synchronously replays the probe ledger against any stale
// nodes (normally the auto-recover repair process does this; scripted
// tools can force it).
func (ss *Session) Reconcile(p *des.Proc) (int, error) { return ss.cl.Reconcile(p) }

// CreateAndInstrumentTime reports the Figure 9 metric: virtual time from
// session creation until the spins were released (application created,
// attached, and all requested instrumentation inserted).
func (ss *Session) CreateAndInstrumentTime() des.Time {
	if !ss.ready {
		panic("dynprof: CreateAndInstrumentTime before the target is ready")
	}
	return ss.readyAt - ss.sessionStart
}
