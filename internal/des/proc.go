//go:build go1.23

// The build constraint raises this file's language version to go1.23 for
// iter.Pull while the module stays at go 1.22 (see DESIGN.md §11).

package des

import (
	"errors"
	"fmt"
	"iter"
	"runtime/debug"
)

// errAborted is panicked inside a Proc when the scheduler tears the
// simulation down or kills the Proc; the Spawn wrapper recovers it so the
// Proc's coroutine finishes cleanly. It must never escape the des package.
var errAborted = errors.New("des: proc aborted")

// Proc is a simulated sequential process: a coroutine that runs real Go
// code but yields to the Scheduler whenever it performs a simulation
// operation (Advance, Recv, Await, Arrive, ...). The Scheduler resumes at
// most one Proc at a time. A resume is a direct coroutine switch
// (iter.Pull): the host thread passes straight to the Proc and back,
// without going through the Go scheduler's run queue.
type Proc struct {
	s         *Scheduler
	name      string
	next      func() (struct{}, bool) // resumes the coroutine until it yields or returns
	yield     func(struct{}) bool     // parks the coroutine; set at its first resume
	done      bool
	killed    bool
	started   bool
	daemon    bool
	blockedOp string // what the Proc is parked in, e.g. "recv "
	blockedOn string // the primitive's name, appended to blockedOp in reports
	steps     uint64

	// recvWait is the waiter a blocking Recv queues on its mailbox. A Proc
	// waits on at most one mailbox at a time, so the waiter lives here
	// instead of being allocated per Recv. (RecvTimeout allocates its own:
	// its timer may fire after the wait is over.)
	recvWait mboxWaiter
}

// SetDaemon marks the Proc as a service process: one that legitimately
// blocks forever waiting for requests. Daemon Procs are exempt from the
// scheduler's end-of-run deadlock check and are torn down with the
// simulation.
func (p *Proc) SetDaemon(v bool) { p.daemon = v }

// Spawn creates a Proc named name running fn. The Proc starts executing at
// the current virtual time, once Run processes its start event. Spawn may
// be called before Run or from inside any event or Proc.
func (s *Scheduler) Spawn(name string, fn func(p *Proc)) *Proc {
	p := &Proc{s: s, name: name}
	p.next, _ = iter.Pull(func(yield func(struct{}) bool) {
		defer func() {
			if r := recover(); r != nil && r != errAborted {
				s.fatal = &ProcPanicError{Proc: p.name, Value: r, Stack: debug.Stack()}
			}
			p.done = true
		}()
		p.yield = yield
		p.started = true
		if p.killed {
			panic(errAborted)
		}
		fn(p)
	})
	s.procs = append(s.procs, p)
	s.resumeAfter(0, p)
	return p
}

// resume switches to p until it parks again or finishes, recording it as
// the running Proc meanwhile (Kill consults this to catch self-kills). A
// finished Proc drops its coroutine closures so the Scheduler's Proc list
// does not retain them.
func (s *Scheduler) resume(p *Proc) {
	prev := s.running
	s.running = p
	p.next()
	s.running = prev
	if p.done {
		p.next, p.yield = nil, nil
	}
}

// step transfers control to p until it parks again (blocks on a simulation
// operation) or finishes. It must only be called from event context.
func (s *Scheduler) step(p *Proc) {
	if p.done {
		return
	}
	p.steps++
	s.resume(p)
}

// park suspends the calling Proc until the scheduler resumes it. The caller
// must already have arranged for a wake-up event (or be waiting on a
// primitive that will deliver one). op and name describe the wait for
// deadlock reports; they are kept apart so that parking never builds a
// string. A Proc killed while parked unwinds from here.
func (p *Proc) park(op, name string) {
	p.blockedOp, p.blockedOn = op, name
	p.yield(struct{}{})
	p.blockedOp, p.blockedOn = "", ""
	if p.killed {
		panic(errAborted)
	}
}

// wake schedules an immediate event that resumes p. Safe to call from any
// event or Proc context.
func (p *Proc) wake() { p.s.resumeAfter(0, p) }

// blockedReport renders a parked Proc for a *DeadlockError.
func (p *Proc) blockedReport() string {
	return fmt.Sprintf("%s (%s%s)", p.name, p.blockedOp, p.blockedOn)
}

// Name reports the Proc's name (used in deadlock reports and traces).
func (p *Proc) Name() string { return p.name }

// Scheduler returns the Scheduler driving p.
func (p *Proc) Scheduler() *Scheduler { return p.s }

// Running reports whether p is the Proc currently executing: true only
// for code running inside p itself.
func (p *Proc) Running() bool { return p.s.running == p }

// Now reports the current virtual time.
func (p *Proc) Now() Time { return p.s.now }

// Advance blocks p for d of virtual time, modelling computation or delay.
// Advance(0) yields to other runnable Procs at the same timestamp.
//
// When p's wake-up would be the next event the running loop executes
// (runsNext), Advance executes that event in place instead of parking:
// it takes the seq, clock and event and step counts the loop would have,
// and returns to p without two coroutine switches and a queue round trip.
func (p *Proc) Advance(d Time) {
	if d < 0 {
		panic("des: Advance with negative duration")
	}
	s := p.s
	if t := s.now + d; s.runsNext(t, p) {
		s.seq++
		s.now = t
		s.executed++
		p.steps++
		return
	}
	s.resumeAfter(d, p)
	p.park("advance", "")
}

// Killed reports whether the simulation is tearing down. Long-running Proc
// loops do not need to poll this: abort is delivered via panic at the next
// blocking operation.
func (p *Proc) Killed() bool { return p.killed }
