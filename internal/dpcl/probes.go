package dpcl

import (
	"cmp"
	"slices"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/proc"
)

// Probe is one snippet installed at one probe point across a set of
// processes (DPCL installs per-process; the Probe aggregates the handles).
type Probe struct {
	Sym   string
	Kind  image.PointKind
	Exit  int
	Name  string
	hands map[*proc.Process]*image.ProbeHandle
}

// targets appends the probe's patched processes to buf in rank order:
// hands is keyed by pointer, so posting requests straight off a map walk
// would make per-request jitter draws — and with them the whole simulation
// — depend on Go's randomised map iteration.
func (probe *Probe) targets(buf []*proc.Process) []*proc.Process {
	for pr := range probe.hands {
		buf = append(buf, pr)
	}
	slices.SortFunc(buf, func(a, b *proc.Process) int { return cmp.Compare(a.Rank(), b.Rank()) })
	return buf
}

// InstallProbe patches snippet code at sym's probe point in every target
// process, blocking until all daemons acknowledge. mk builds the snippet
// for each process (snippets call into per-process library instances).
// The probe is installed inactive; use Activate.
//
// The install is recorded in the client's probe ledger before the first
// request goes out, so a daemon restart at any point reconverges to it.
// On failure — including a typed *GiveUpError when a daemon never
// acknowledges — the ledger entry is dropped again and any targets that
// did install are rolled back, so a failed install never leaves the probe
// half-staged.
func (cl *Client) InstallProbe(p *des.Proc, procs []*proc.Process,
	sym string, kind image.PointKind, exit int, name string,
	mk func(pr *proc.Process) image.Snippet) (*Probe, error) {

	probe := &Probe{Sym: sym, Kind: kind, Exit: exit, Name: name,
		hands: make(map[*proc.Process]*image.ProbeHandle, len(procs))}
	e := cl.addLedger(probe, mk, procs)
	var errs []error
	pending := cl.sys.reqBuf.take()
	for _, pr := range procs {
		req := cl.installReq(e, pr, &errs)
		cl.post(p, pr, req, true)
		pending = append(pending, req)
	}
	if err := cl.collect(p, pending); err != nil {
		errs = append(errs, err)
	}
	cl.sys.reqBuf.give(pending)
	if len(errs) > 0 {
		cl.dropLedger(probe)
		cl.rollbackInstall(p, probe)
		return nil, errs[0]
	}
	return probe, nil
}

// Activate turns the probe's snippets on in every process. Acknowledged;
// on a faulted control path the error reports targets whose daemons never
// acknowledged within the retry budget.
func (cl *Client) Activate(p *des.Proc, probe *Probe) error {
	return cl.toggle(p, probe, true)
}

// Deactivate turns the probe's snippets off in every process.
func (cl *Client) Deactivate(p *des.Proc, probe *Probe) error {
	return cl.toggle(p, probe, false)
}

func (cl *Client) toggle(p *des.Proc, probe *Probe, active bool) error {
	// Desired state first: a replay triggered while these toggles are in
	// flight must already see the client's latest intent.
	if e := cl.byProbe[probe]; e != nil {
		e.active = active
	}
	return cl.probeOp(p, probe, kindToggle, toggleTime, active)
}

// probeOp posts one acknowledged toggle or remove of probe to each of its
// targets, in rank order, and collects the acks.
func (cl *Client) probeOp(p *des.Proc, probe *Probe, kind reqKind, cost des.Time, active bool) error {
	sys := cl.sys
	targets := probe.targets(sys.procBuf.take())
	pending := sys.reqBuf.take()
	for _, pr := range targets {
		req := sys.newRequest(kind, cost)
		req.probe, req.active = probe, active
		cl.post(p, pr, req, true)
		pending = append(pending, req)
	}
	sys.procBuf.give(targets)
	err := cl.collect(p, pending)
	sys.reqBuf.give(pending)
	return err
}

// Remove unlinks the probe from every process, restoring pristine code at
// probe points whose last snippet goes away.
func (cl *Client) Remove(p *des.Proc, probe *Probe) error {
	// Desired state first: drop the ledger entry before the removes go
	// out, so a concurrent replay does not resurrect the probe.
	cl.dropLedger(probe)
	err := cl.probeOp(p, probe, kindRemove, removeTime, false)
	clear(probe.hands)
	return err
}

// Suspend halts the target processes. With blocking set, it waits until
// every thread of every target is actually stopped (the guarantee dynprof
// relies on before patching a running OpenMP image: "we use a blocking
// version of the DPCL suspend function") and returns an error if a
// faulted control path swallowed the acknowledgements. Non-blocking
// suspends are fire-and-forget and never error.
func (cl *Client) Suspend(p *des.Proc, procs []*proc.Process, blocking bool) error {
	return cl.control(p, procs, kindSuspend, suspendTime, blocking)
}

// control posts one suspend or resume to each of procs; acknowledged ones
// are collected.
func (cl *Client) control(p *des.Proc, procs []*proc.Process, kind reqKind, cost des.Time, acked bool) error {
	sys := cl.sys
	pending := sys.reqBuf.take()
	for _, pr := range procs {
		req := sys.newRequest(kind, cost)
		cl.post(p, pr, req, acked)
		if acked {
			pending = append(pending, req)
		}
	}
	err := cl.collect(p, pending)
	sys.reqBuf.give(pending)
	return err
}

// Resume releases suspended target processes (unacknowledged, like the
// asynchronous continue in DPCL). On a crash-prone system the release is
// acknowledged and retransmitted like any other control request: a lost
// resume would otherwise leave the target parked until its daemon is torn
// down, freezing the rank for the rest of the session. A transaction that
// still gives up is abandoned silently — daemon teardown releases whatever
// balance remains.
func (cl *Client) Resume(p *des.Proc, procs []*proc.Process) {
	_ = cl.control(p, procs, kindResume, resumeTime, cl.sys.crashable)
}

// PostCallback delivers a DPCL_callback message from a target process to
// the client's event mailbox, with the usual daemon-path jitter. Snippets
// running inside the application call this.
func (cl *Client) PostCallback(tag string, rank int) {
	cl.events.PutAfter(cl.sys.Delay(), Event{Kind: "callback", Tag: tag, Rank: rank})
}

// WatchBreakpoints arranges for hits of the named breakpoint in any target
// process to suspend that process and notify the client's event mailbox —
// the monitoring-tool side of dynamic control of instrumentation.
func (cl *Client) WatchBreakpoints(procs []*proc.Process, symbol string) {
	for _, pr := range procs {
		pr := pr
		pr.SetBreakpointHandler(func(t *proc.Thread, name string) {
			if name != symbol {
				return
			}
			// The stop is credited to this client's daemon so it admits the
			// resume (and releases the stop if it dies); with no live daemon
			// the target runs on.
			if d := cl.daemonFor(pr); d != nil && !d.dead {
				pr.RequestSuspend()
				d.holdSuspend(pr)
			}
			cl.events.PutAfter(cl.sys.Delay(), Event{Kind: "breakpoint", Tag: name, Rank: pr.Rank()})
		})
	}
}
