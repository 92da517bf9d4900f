// Package proc models simulated processes and threads executing a
// patchable image on the simulated machine.
//
// Application code runs as real Go closures, but every function call goes
// through a call gate (Thread.Call) that interprets the function's entry
// and exit probe regions in the image — so statically compiled-in
// instrumentation and dynamically patched trampolines both fire exactly
// where they would in a real address space, and their instruction costs
// are charged to the thread's virtual clock.
//
// Threads support DPCL-style suspension: a controller requests a suspend,
// threads park at the next safe point (call gates and blocking operations),
// and the controller can wait for the whole process to be stopped before
// patching the image (the paper's blocking suspend).
package proc

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
)

// syncBatchCycles bounds how many cycles a thread accumulates before it
// must flush them into a real scheduler Advance. Batching keeps the event
// count proportional to communication, not to function calls; the precise
// per-event clock is recovered via Thread.Now's pending adjustment.
const syncBatchCycles = 1 << 16

// Process is one simulated OS process: an address-space image plus one or
// more threads. MPI ranks are single-threaded processes with distinct
// image clones; an OpenMP application is one process whose team threads
// share a single image.
type Process struct {
	name string
	rank int
	node int
	img  *image.Image
	lib  image.Library
	cfg  *machine.Config
	s    *des.Scheduler

	threads []*Thread

	// suspends counts suspend requests in force. It is a count, not a
	// flag, because several controllers (a multi-tenant session server's
	// concurrent instrumenters) may hold overlapping suspend windows on
	// one process: threads run only while the count is zero, so one
	// controller's Resume cannot release another's patch window.
	suspends   int
	resumeGate *des.Gate
	allStopped *des.Gate
	notRunning int

	bpHandler func(t *Thread, name string)

	// clockScale stretches this node's cycle-to-time conversion under a
	// slowdown fault; 1 on a healthy node. stalls are the node's freeze
	// windows. Both are cached from the machine's fault plan at creation.
	clockScale float64
	stalls     []fault.Stall

	exited   bool
	crashed  bool
	exitGate *des.Gate
}

// NewProcess creates a process on the given node with no threads yet.
func NewProcess(s *des.Scheduler, cfg *machine.Config, name string, rank, node int, img *image.Image) *Process {
	pr := &Process{
		name:       name,
		rank:       rank,
		node:       node,
		img:        img,
		cfg:        cfg,
		s:          s,
		resumeGate: des.NewGate(name+".resume", true),
		allStopped: des.NewGate(name+".allstopped", false),
		exitGate:   des.NewGate(name+".exit", false),
		clockScale: 1,
	}
	if plan := cfg.FaultPlan(); !plan.IsZero() {
		pr.clockScale = plan.SlowdownOn(node)
		pr.stalls = plan.StallsOn(node)
	}
	return pr
}

// Name reports the process name (e.g. "smg98.3" for rank 3).
func (pr *Process) Name() string { return pr.name }

// Rank reports the process's MPI rank (0 for non-MPI processes).
func (pr *Process) Rank() int { return pr.rank }

// Node reports the machine node hosting the process.
func (pr *Process) Node() int { return pr.node }

// Image returns the process's address space.
func (pr *Process) Image() *image.Image { return pr.img }

// SetLibrary links the process's instrumentation library instance.
func (pr *Process) SetLibrary(lib image.Library) { pr.lib = lib }

// Config returns the machine configuration the process runs on.
func (pr *Process) Config() *machine.Config { return pr.cfg }

// Scheduler returns the simulation scheduler.
func (pr *Process) Scheduler() *des.Scheduler { return pr.s }

// Threads returns the process's threads in creation order.
func (pr *Process) Threads() []*Thread { return pr.threads }

// Exited reports whether the process is gone: its main thread finished,
// or it was crashed by a fault.
func (pr *Process) Exited() bool { return pr.exited || pr.crashed }

// Crashed reports whether the process was killed by a fault.
func (pr *Process) Crashed() bool { return pr.crashed }

// Crash kills the process immediately, modelling a rank dying: every
// thread's Proc unwinds and the process never computes or communicates
// again. WaitExit callers are released (the process is gone either way).
// Crash may be called from event context or from inside any Proc. A thread
// crashing its own process is killed last, after the process is marked
// gone, since killing the running Proc unwinds it at once.
func (pr *Process) Crash() {
	if pr.crashed || pr.exited {
		return
	}
	pr.crashed = true
	var self *des.Proc
	for _, t := range pr.threads {
		if !t.dead {
			t.dead = true
			if t.p.Running() {
				self = t.p
				continue
			}
			pr.s.Kill(t.p)
		}
	}
	pr.checkAllStopped()
	pr.exitGate.Set(true)
	if self != nil {
		pr.s.Kill(self)
	}
}

// SetBreakpointHandler installs fn to be invoked when any thread executes
// a breakpoint snippet (Thread.Breakpoint). Monitoring tools use this to
// halt the application at configuration_break.
func (pr *Process) SetBreakpointHandler(fn func(t *Thread, name string)) {
	pr.bpHandler = fn
}

// Start spawns the process's main thread (thread 0) running fn, then marks
// the process exited when fn returns. The process must not already have
// threads.
func (pr *Process) Start(fn func(t *Thread)) *Thread {
	if len(pr.threads) != 0 {
		panic(fmt.Sprintf("proc %s: Start on a process with threads", pr.name))
	}
	return pr.spawnThread(fn, func() {
		pr.exited = true
		pr.exitGate.Set(true)
	})
}

// SpawnThread adds a team thread running fn (OpenMP fork). The returned
// thread disappears when fn returns.
func (pr *Process) SpawnThread(fn func(t *Thread)) *Thread {
	if len(pr.threads) == 0 {
		panic(fmt.Sprintf("proc %s: SpawnThread before Start", pr.name))
	}
	return pr.spawnThread(fn, nil)
}

func (pr *Process) spawnThread(fn func(t *Thread), onExit func()) *Thread {
	t := &Thread{proc: pr, id: len(pr.threads)}
	pr.threads = append(pr.threads, t)
	name := fmt.Sprintf("%s/t%d", pr.name, t.id)
	t.p = pr.s.Spawn(name, func(p *des.Proc) {
		fn(t)
		t.Sync()
		t.dead = true
		pr.checkAllStopped() // a dead thread can no longer park
		if onExit != nil {
			onExit()
		}
	})
	return t
}

// WaitExit blocks p until the process's main thread has returned.
func (pr *Process) WaitExit(p *des.Proc) { p.Await(pr.exitGate) }

// RequestSuspend asks every thread to park at its next safe point. Threads
// blocked in communication count as stopped (they cannot touch the image).
// Use WaitStopped for DPCL's blocking suspend semantics. Suspends nest:
// each RequestSuspend must be balanced by one Resume, and threads run only
// when no suspend remains in force — overlapping patch windows from
// concurrent controllers therefore compose instead of releasing each other.
func (pr *Process) RequestSuspend() {
	pr.suspends++
	if pr.suspends > 1 {
		return // already suspending; the new request stacks on top
	}
	pr.resumeGate.Set(false)
	pr.checkAllStopped()
}

// Resume releases one suspend request; threads run again once every
// outstanding request has been resumed. Resuming a process with no
// suspend in force is a no-op.
func (pr *Process) Resume() {
	if pr.suspends == 0 {
		return
	}
	pr.suspends--
	if pr.suspends > 0 {
		return
	}
	pr.allStopped.Set(false)
	pr.resumeGate.Set(true)
}

// Suspended reports whether a suspend is in force.
func (pr *Process) Suspended() bool { return pr.suspends > 0 }

// WaitStopped blocks p until every thread of the process is parked at a
// safe point or blocked in communication — the guarantee of DPCL's
// blocking suspend ("all threads are stopped before modifying the single
// shared image").
func (pr *Process) WaitStopped(p *des.Proc) {
	if pr.suspends == 0 {
		panic(fmt.Sprintf("proc %s: WaitStopped without RequestSuspend", pr.name))
	}
	p.Await(pr.allStopped)
}

func (pr *Process) checkAllStopped() {
	live := 0
	for _, t := range pr.threads {
		if !t.dead {
			live++
		}
	}
	if pr.suspends > 0 && pr.notRunning >= live {
		pr.allStopped.Set(true)
	}
}

// Thread is one simulated thread of control.
type Thread struct {
	proc *Process
	id   int
	p    *des.Proc
	dead bool
	// mute counts the runtime calls and probe executions in progress,
	// whose work and gates are not the application's own (see Mute).
	mute int32

	// pending holds cycles charged but not yet flushed into virtual time.
	pending int64
	// instrCycles counts cycles attributed to instrumentation (probe
	// words and snippet work), for overhead accounting in tests.
	instrCycles int64
	// suspended accumulates time this thread spent parked by suspends.
	suspended des.Time
	// calls counts call-gate traversals (used to rotate exit points).
	calls int64
	// stack is the live call stack of gate-traversed functions, the state
	// a statistical sampler inspects ("recording the code location
	// currently executing at the time that the interval expires").
	stack []*image.Symbol

	// tape, when non-nil, records the thread's application operations.
	tape *tape.Track
}

var _ image.ExecCtx = (*Thread)(nil)

// ThreadID reports the thread id within its process (image.ExecCtx).
func (t *Thread) ThreadID() int { return t.id }

// Process returns the owning process.
func (t *Thread) Process() *Process { return t.proc }

// Library implements image.ExecCtx: the process's linked library.
func (t *Thread) Library() image.Library { return t.proc.lib }

// DES returns the underlying simulation process, for use by runtime layers
// (MPI, OpenMP) that need to block the thread on simulation primitives.
// Callers must flush pending work first; use Block for the common pattern.
func (t *Thread) DES() *des.Proc { return t.p }

// cyclesToTime converts cycles at this node's effective clock rate: the
// machine conversion stretched by any slowdown fault. The scale-1 path
// multiplies by nothing, so fault-free arithmetic is bit-identical to the
// pre-fault model.
func (pr *Process) cyclesToTime(cycles int64) des.Time {
	d := pr.cfg.CyclesToTime(cycles)
	if pr.clockScale != 1 {
		d = des.Time(float64(d) * pr.clockScale)
	}
	return d
}

// stretchThroughStalls reports how long a computation of duration d
// starting at start really takes on this node, with progress frozen
// inside each stall window.
func (pr *Process) stretchThroughStalls(start, d des.Time) des.Time {
	remaining := d
	cur := start
	for _, st := range pr.stalls {
		if st.End() <= cur {
			continue
		}
		gap := st.At - cur
		if gap < 0 {
			gap = 0
		}
		if remaining <= gap {
			cur += remaining
			return cur - start
		}
		remaining -= gap
		cur = st.End()
	}
	return cur + remaining - start
}

// Now reports the thread's precise virtual clock: scheduler time plus any
// cycles charged but not yet flushed.
func (t *Thread) Now() des.Time {
	return t.p.Now() + t.proc.cyclesToTime(t.pending)
}

// Charge adds cycles of instrumentation work to the thread's account.
// Implements image.ExecCtx; snippets call it to price library work.
func (t *Thread) Charge(cycles int64) {
	t.pending += cycles
	t.instrCycles += cycles
}

// Work adds cycles of application computation to the thread's account.
func (t *Thread) Work(cycles int64) {
	if cycles < 0 {
		panic("proc: negative work")
	}
	t.pending += cycles
	if tr := t.Tape(); tr != nil {
		tr.Append(tape.Op{Kind: tape.Work, A: cycles})
	}
	if t.pending >= syncBatchCycles {
		t.Sync()
	}
}

// SetTape makes the thread record its application operations — gates
// and Work — into tr from now on; nil stops recording. The runtime layers
// record their own entry points through Tape.
func (t *Thread) SetTape(tr *tape.Track) { t.tape = tr }

// Tape returns the track recording this thread's application operations:
// nil when the thread is not recording, or is inside a runtime call or a
// probe (see Mute).
func (t *Thread) Tape() *tape.Track {
	if t.mute > 0 {
		return nil
	}
	return t.tape
}

// Mute suspends recording until the matching Unmute. Runtime entry points
// bracket their bodies with it: the work and gates MPI_Init or a fork
// performs on the application's behalf are not application operations.
func (t *Thread) Mute() { t.mute++ }

// Unmute ends one Mute.
func (t *Thread) Unmute() { t.mute-- }

// WorkTime adds a fixed duration of application activity (e.g. I/O).
func (t *Thread) WorkTime(d des.Time) { t.Work(t.proc.cfg.TimeToCycles(d)) }

// Sync flushes pending cycles into virtual time. Runtime layers call it
// before any cross-thread interaction so inter-thread timestamps are exact.
func (t *Thread) Sync() {
	if t.pending == 0 {
		return
	}
	d := t.proc.cyclesToTime(t.pending)
	t.pending = 0
	if len(t.proc.stalls) > 0 {
		d = t.proc.stretchThroughStalls(t.p.Now(), d)
	}
	t.p.Advance(d)
}

// Block runs fn with the thread flushed and marked not-running, so that a
// pending suspend can complete while the thread waits inside fn (threads
// blocked in communication cannot touch the image). It re-checks the
// suspend flag after fn returns.
func (t *Thread) Block(fn func(p *des.Proc)) {
	t.Sync()
	t.proc.notRunning++
	t.proc.checkAllStopped()
	fn(t.p)
	t.proc.notRunning--
	t.SafePoint()
}

// SafePoint parks the thread if a suspend is pending. Call gates and
// runtime layers invoke it at every point where stopping is safe.
func (t *Thread) SafePoint() {
	for t.proc.suspends > 0 {
		t.Sync()
		start := t.p.Now()
		t.proc.notRunning++
		t.proc.checkAllStopped()
		t.p.Await(t.proc.resumeGate)
		t.proc.notRunning--
		t.suspended += t.p.Now() - start
	}
}

// SuspendedTime reports how long this thread has been parked by suspends.
func (t *Thread) SuspendedTime() des.Time { return t.suspended }

// InstrCycles reports cycles attributed to instrumentation on this thread.
func (t *Thread) InstrCycles() int64 { return t.instrCycles }

// Calls reports the number of call gates traversed.
func (t *Thread) Calls() int64 { return t.calls }

// Breakpoint reports hitting a named breakpoint to the process's handler
// (if any), then parks at a safe point so a suspend issued by the handler
// takes effect immediately.
func (t *Thread) Breakpoint(name string) {
	if h := t.proc.bpHandler; h != nil {
		h(t, name)
	}
	t.SafePoint()
}

// CurrentFunction reports the function the thread is executing (the top
// of its call stack), or "" outside any gate-traversed function.
func (t *Thread) CurrentFunction() string {
	if len(t.stack) == 0 {
		return ""
	}
	return t.stack[len(t.stack)-1].Name
}

// StackDepth reports the thread's current call depth.
func (t *Thread) StackDepth() int { return len(t.stack) }

// Call traverses the call gate for sym, a symbol of the process image
// resolved once by the caller: interpret its entry region (firing any
// probes), run body, then interpret one exit region. Functions with
// several return points have them exercised round-robin. A nil body
// models a leaf routine whose work was charged by the caller. On a
// recording thread the gate is taped by function handle; its probes run
// muted, since what a snippet does (a confsync, a breakpoint) is the
// tool's work, not the application's.
func (t *Thread) Call(sym *image.Symbol, body func()) {
	tr := t.Tape()
	t.SafePoint()
	t.calls++
	t.stack = append(t.stack, sym)
	if tr != nil {
		tr.Enter(sym.Region)
	}
	t.mute++
	t.Charge(t.proc.img.ExecEntry(sym, t))
	t.mute--
	if body != nil {
		body()
	}
	exit := 0
	if len(sym.Exits) > 1 {
		exit = int(t.calls) % len(sym.Exits)
	}
	t.mute++
	t.Charge(t.proc.img.ExecExit(sym, exit, t))
	t.mute--
	if tr != nil {
		tr.Append(tape.Op{Kind: tape.Exit})
	}
	t.stack = t.stack[:len(t.stack)-1]
	if t.pending >= syncBatchCycles {
		t.Sync()
	}
}
