package core

import (
	"fmt"
	"io"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

// AttachConfig parameterises AttachSessionWith. The zero value is the
// single-tool attach: a private DPCL System, discarded output.
type AttachConfig struct {
	// System is the DPCL installation to connect through. Nil creates a
	// private System, the single-tool model; a session server passes its
	// shared System so all tenants' control traffic meets at the same
	// per-node daemons.
	System *dpcl.System
	// User is the DPCL user name ("dynprof-attach" if empty). Distinct
	// users get distinct communication daemons on each node.
	User string
	// Output receives command responses (discarded if nil).
	Output io.Writer
	// OnTrace, when non-nil, observes every probe-generated trace event at
	// snippet granularity (events is always 1 per call today). Quota
	// accounting hooks in here.
	OnTrace func(events int)
}

// AttachSessionWith attaches a dynprof instance to an application that is
// already executing — the capability the paper's prototype deliberately
// skipped ("while DPCL provides facilities to attach to an already
// executing application, we restrict our prototype to the case of first
// spawning and then instrumenting ... we do not foresee any difficult
// issues in extending our tool"). This is that extension.
//
// Attachment requires the target to be past its tracing-library
// initialisation on every process (the same safety constraint the spawn
// path enforces with the Figure 6 callback): instrumentation inserted
// before VT is ready could call into an uninitialised library.
func AttachSessionWith(p *des.Proc, mach *machine.Config, job *guide.Job, acfg AttachConfig) (*Session, error) {
	out := acfg.Output
	if out == nil {
		out = io.Discard
	}
	if !job.Released() {
		return nil, fmt.Errorf("dynprof: cannot attach to a job that was never started")
	}
	for i := range job.Processes() {
		if !job.VT(i).Ready() {
			return nil, fmt.Errorf("dynprof: process %d has not initialised its tracing library yet; attach after MPI_Init/VT_init", i)
		}
	}
	s := p.Scheduler()
	sys := acfg.System
	if sys == nil {
		sys = dpcl.NewSystem(s, mach)
	}
	user := acfg.User
	if user == "" {
		user = "dynprof-attach"
	}
	ss := &Session{
		cfg:          Config{Machine: mach, Output: out},
		s:            s,
		sys:          sys,
		bin:          job.Binary(),
		job:          job,
		tf:           NewTimefile(),
		out:          out,
		installed:    make(map[string][]*dpcl.Probe),
		onTrace:      acfg.OnTrace,
		sessionStart: p.Now(),
		started:      true,
		ready:        true, // the library is initialised; inserts go live
	}
	stop := ss.tf.Begin("attach", p.Now())
	ss.cl = ss.sys.Connect(user)
	ss.cl.Attach(p, job.Processes())
	ss.armAutoRecover()
	stop(p.Now())
	ss.readyAt = p.Now()
	return ss, nil
}

// Detach disconnects an attached session, leaving active instrumentation
// in place (the same semantics as the quit command).
func (ss *Session) Detach(p *des.Proc) { ss.Quit(p) }
