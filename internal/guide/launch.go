package guide

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/mpi"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
	"dynprof/internal/tape"
	"dynprof/internal/vt"
)

// LaunchOpts configures a job launch (the poe invocation).
type LaunchOpts struct {
	// Procs is the number of MPI ranks, or OpenMP threads for an OMP
	// binary (which always runs as one process on one node).
	Procs int
	// Hold creates the job suspended at its first instruction, as an
	// instrumenter's spawn does; call Job.Release to start it.
	Hold bool
	// Args overrides entries of the application's default input deck.
	Args map[string]int
	// CountOnly drops trace event payloads while keeping costs and
	// statistics (for large experiment sweeps).
	CountOnly bool
	// Node is the first node of the job's packed placement, so several
	// jobs can occupy disjoint node ranges of one machine (MPI binaries
	// only; OpenMP binaries always run on node 0).
	Node int
	// Tape, when non-nil, is an application tape (see package tape). A
	// blank tape is started by the launch and records every process's
	// application operations as the job runs; it is complete once the job
	// has finished without error and its Err is nil. A recorded tape —
	// from a finished run of the same application, input deck and size —
	// runs every process in place of App.Main. Instrumentation, tracing,
	// faults and message timing all still run live; a replay that
	// diverges from its tape fails with a *tape.MismatchError panic.
	Tape *tape.Tape
}

// Job is a launched (possibly held) run of a binary on the machine.
type Job struct {
	bin   *Binary
	s     *des.Scheduler
	mach  *machine.Config
	col   *vt.Collector
	place *machine.Placement
	procs []*proc.Process
	vts   []*vt.Ctx
	world *mpi.World // nil for OpenMP binaries

	inj *fault.Injector // nil unless the machine carries a fault plan

	startGate  *des.Gate
	released   bool
	countOnly  bool
	startNode  int
	ompElapsed des.Time

	tape      *tape.Tape
	replaying bool // tape drives the job; else it records into tape
}

// Launch places and starts (or holds) a run of bin with n processes.
func Launch(s *des.Scheduler, mach *machine.Config, bin *Binary, opts LaunchOpts) (*Job, error) {
	n := opts.Procs
	if n <= 0 {
		return nil, fmt.Errorf("guide: launch with %d processes", n)
	}
	replaying := false
	if tp := opts.Tape; tp != nil {
		replaying = tp.Len() > 0
		if !replaying {
			if err := tp.Start(bin.app.Name, n, bin.fnOf); err != nil {
				return nil, err
			}
		} else if tp.App() != bin.app.Name || tp.Len() != n {
			return nil, fmt.Errorf("guide: %s tape of %d threads cannot replay %s on %d", tp.App(), tp.Len(), bin.app.Name, n)
		}
	}
	args := make(map[string]int, len(bin.app.DefaultArgs)+len(opts.Args))
	for k, v := range bin.app.DefaultArgs {
		args[k] = v
	}
	for k, v := range opts.Args {
		args[k] = v
	}
	j := &Job{
		bin:       bin,
		s:         s,
		mach:      mach,
		col:       vt.NewCollector(),
		startGate: des.NewGate(bin.app.Name+".start", !opts.Hold),
		released:  !opts.Hold,
		countOnly: opts.CountOnly,
		startNode: opts.Node,
		tape:      opts.Tape,
		replaying: replaying,
	}
	if plan := mach.FaultPlan(); !plan.IsZero() {
		if err := plan.Validate(); err != nil {
			return nil, fmt.Errorf("guide: %w", err)
		}
		j.inj = fault.NewInjector(plan, s.RNG().Fork())
	}
	if bin.app.Lang.IsMPI() {
		if err := j.launchMPI(n, args); err != nil {
			return nil, err
		}
	} else {
		if err := j.launchOMP(n, args); err != nil {
			return nil, err
		}
	}
	j.scheduleFaults()
	return j, nil
}

// scheduleFaults logs the machine's configured degradations and arms the
// planned rank crashes on the DES clock.
func (j *Job) scheduleFaults() {
	if j.inj == nil {
		return
	}
	plan := j.mach.FaultPlan()
	for _, sl := range plan.Slowdowns {
		j.inj.Record(0, fault.KindSlowdown, sl.Node, -1,
			fmt.Sprintf("clock scaled %gx", sl.Factor))
	}
	for _, st := range plan.Stalls {
		j.inj.Record(st.At, fault.KindStall, st.Node, -1,
			fmt.Sprintf("node frozen for %v", st.Duration))
	}
	for _, cr := range plan.Crashes {
		if cr.Rank < 0 || cr.Rank >= len(j.procs) {
			continue
		}
		cr := cr
		j.s.At(cr.At, func() {
			pr := j.procs[cr.Rank]
			if pr.Exited() {
				return
			}
			pr.Crash()
			if j.world != nil {
				j.world.MarkDead(cr.Rank)
			}
			j.inj.Record(j.s.Now(), fault.KindCrash, pr.Node(), cr.Rank, "planned crash")
		})
	}
}

// vtOptions configures the library instance of the process on node that
// runs as rank: the binary's linked configuration and API tracing, the
// launch's count-only mode and the job's fault injector, all on the job's
// collector.
func (j *Job) vtOptions(rank, node int) vt.Options {
	return vt.Options{
		Rank:      rank,
		Config:    j.bin.opts.Config,
		Collector: j.col,
		TraceAPI:  j.bin.opts.TraceAPI,
		CountOnly: j.countOnly,
		Faults:    j.inj,
		Node:      node,
	}
}

func (j *Job) launchMPI(n int, args map[string]int) error {
	place, err := machine.PackFrom(j.mach, n, j.startNode)
	if err != nil {
		return err
	}
	j.place = place
	j.world = mpi.NewWorld(j.s, place)
	j.world.SetFaults(j.inj)
	for r := 0; r < n; r++ {
		r := r
		v := vt.NewCtx(j.vtOptions(r, place.NodeOf(r)))
		j.vts = append(j.vts, v)
		img := j.bin.loadImage(v)
		pr := proc.NewProcess(j.s, j.mach, fmt.Sprintf("%s.%d", j.bin.app.Name, r), r, place.NodeOf(r), img)
		j.procs = append(j.procs, pr)
		pr.Start(func(th *proc.Thread) {
			th.Block(func(p *des.Proc) { p.Await(j.startGate) })
			c := j.world.Register(r, th, &vt.MPIAdapter{C: v})
			ctx := &Ctx{T: th, MPI: c, VT: v, Args: args, syms: j.bin.syms}
			switch {
			case j.replaying:
				replayMain(ctx, j.tape, r)
			case j.tape != nil:
				th.SetTape(j.tape.Track(r))
				j.bin.app.Main(ctx)
				th.SetTape(nil)
			default:
				j.bin.app.Main(ctx)
			}
		})
	}
	return nil
}

func (j *Job) launchOMP(threads int, args map[string]int) error {
	place, err := machine.OneNode(j.mach, threads)
	if err != nil {
		return err
	}
	j.place = place
	v := vt.NewCtx(j.vtOptions(0, 0))
	j.vts = append(j.vts, v)
	img := j.bin.loadImage(v)
	pr := proc.NewProcess(j.s, j.mach, j.bin.app.Name, 0, 0, img)
	j.procs = append(j.procs, pr)
	pr.Start(func(master *proc.Thread) {
		master.Block(func(p *des.Proc) { p.Await(j.startGate) })
		// The Guide compiler statically inserts a call to VT_init at the
		// beginning of main; its exit probe is where dynprof plants the
		// OpenMP callback + spin (Section 3.4).
		master.Call(img.MustLookup("VT_init"), func() { v.Initialize(master) })
		start := master.Now()
		suspAtStart := master.SuspendedTime()
		rt := omp.New(pr, master, threads, &vt.OMPAdapter{C: v})
		ctx := &Ctx{T: master, OMP: rt, VT: v, Args: args, syms: j.bin.syms}
		switch {
		case j.replaying:
			replayMain(ctx, j.tape, 0)
		case j.tape != nil:
			// Team thread i records track i; the master is thread 0.
			team := pr.Threads()
			for i, th := range team {
				th.SetTape(j.tape.Track(i))
			}
			j.bin.app.Main(ctx)
			for _, th := range team {
				th.SetTape(nil)
			}
		default:
			j.bin.app.Main(ctx)
		}
		rt.Shutdown()
		master.Sync()
		j.ompElapsed = (master.Now() - start) - (master.SuspendedTime() - suspAtStart)
		v.Flush() // trace dump at program termination
	})
	return nil
}

// Release starts a held job (dynprof's "start" command).
func (j *Job) Release() {
	if j.released {
		return
	}
	j.released = true
	j.startGate.Set(true)
}

// Released reports whether the job has been started.
func (j *Job) Released() bool { return j.released }

// WaitAll blocks p until every process of the job has exited.
func (j *Job) WaitAll(p *des.Proc) {
	for _, pr := range j.procs {
		pr.WaitExit(p)
	}
}

// Done reports whether all processes have exited.
func (j *Job) Done() bool {
	for _, pr := range j.procs {
		if !pr.Exited() {
			return false
		}
	}
	return true
}

// Binary returns the binary the job runs.
func (j *Job) Binary() *Binary { return j.bin }

// Collector returns the job's trace collector.
func (j *Job) Collector() *vt.Collector { return j.col }

// Placement returns the job's rank placement.
func (j *Job) Placement() *machine.Placement { return j.place }

// Processes returns the job's processes in rank order.
func (j *Job) Processes() []*proc.Process { return j.procs }

// VT returns process i's instrumentation library instance.
func (j *Job) VT(i int) *vt.Ctx { return j.vts[i] }

// VTReady reports whether every process's instrumentation library has
// initialised — the point after which a tool may attach to the running job.
func (j *Job) VTReady() bool {
	for _, v := range j.vts {
		if !v.Ready() {
			return false
		}
	}
	return true
}

// World returns the MPI world, or nil for an OpenMP binary.
func (j *Job) World() *mpi.World { return j.world }

// Faults returns the structured fault events the run emitted, in time
// order; empty for a run on a fault-free machine.
func (j *Job) Faults() []fault.Event { return j.inj.Events() }

// FaultInjector exposes the job's injector so instrumenters (dpcl) and
// collectors can log onto the same stream; nil for fault-free machines.
func (j *Job) FaultInjector() *fault.Injector { return j.inj }

// MainElapsed reports the job's main-computation time: the maximum over
// MPI ranks of the MPI_Init→MPI_Finalize interval, or the OpenMP main's
// elapsed time — in both cases excluding instrumenter-imposed suspensions.
// The job must have finished.
func (j *Job) MainElapsed() des.Time {
	if !j.Done() {
		panic("guide: MainElapsed on a running job")
	}
	if j.world == nil {
		return j.ompElapsed
	}
	var max des.Time
	for r := 0; r < j.world.Size(); r++ {
		// Crashed ranks never reach MPI_Finalize (and held-then-crashed
		// ranks may never have registered); their interval is undefined.
		c := j.world.Rank(r)
		if c == nil || j.world.Dead(r) {
			continue
		}
		if e := c.MainElapsed(); e > max {
			max = e
		}
	}
	return max
}
