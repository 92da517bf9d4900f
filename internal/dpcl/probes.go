package dpcl

import (
	"sort"

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

// targets returns the probe's patched processes in rank order: hands is
// keyed by pointer, so posting requests straight off a map walk would make
// per-request jitter draws — and with them the whole simulation — depend
// on Go's randomised map iteration.
func (probe *Probe) targets() []*proc.Process {
	ts := make([]*proc.Process, 0, len(probe.hands))
	for pr := range probe.hands {
		ts = append(ts, pr)
	}
	sort.Slice(ts, func(i, j int) bool { return ts[i].Rank() < ts[j].Rank() })
	return ts
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
	var pending []pendingAck
	for _, pr := range procs {
		req := cl.installReq(e, pr, &errs)
		cl.post(p, pr, req, true)
		pending = append(pending, pendingAck{pr: pr, req: req})
	}
	if err := cl.collect(p, pending); err != nil {
		errs = append(errs, err)
	}
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
	var pending []pendingAck
	for _, pr := range probe.targets() {
		pr := pr
		req := &request{kind: "toggle", cost: toggleTime, run: func(dp *des.Proc) {
			// Resolve the handle at execution time: a crash may have torn
			// the original out and a replay re-installed a fresh one.
			if h := probe.hands[pr]; h != nil && !h.Removed() {
				h.SetActive(active)
			}
		}}
		cl.post(p, pr, req, true)
		pending = append(pending, pendingAck{pr: pr, req: req})
	}
	return cl.collect(p, pending)
}

// Remove unlinks the probe from every process, restoring pristine code at
// probe points whose last snippet goes away.
func (cl *Client) Remove(p *des.Proc, probe *Probe) error {
	// Desired state first: drop the ledger entry before the removes go
	// out, so a concurrent replay does not resurrect the probe.
	cl.dropLedger(probe)
	var errs []error
	var pending []pendingAck
	for _, pr := range probe.targets() {
		pr := pr
		req := &request{kind: "remove", cost: removeTime, run: func(dp *des.Proc) {
			h := probe.hands[pr]
			if h == nil || h.Removed() {
				return // already gone (a daemon crash tore it out)
			}
			if err := h.Remove(); err != nil {
				errs = append(errs, err)
			}
		}}
		cl.post(p, pr, req, true)
		pending = append(pending, pendingAck{pr: pr, req: req})
	}
	if err := cl.collect(p, pending); err != nil {
		errs = append(errs, err)
	}
	probe.hands = make(map[*proc.Process]*image.ProbeHandle)
	if len(errs) > 0 {
		return errs[0]
	}
	return nil
}

// Suspend halts the target processes. With blocking set, it waits until
// every thread of every target is actually stopped (the guarantee dynprof
// relies on before patching a running OpenMP image: "we use a blocking
// version of the DPCL suspend function") and returns an error if a
// faulted control path swallowed the acknowledgements. Non-blocking
// suspends are fire-and-forget and never error.
func (cl *Client) Suspend(p *des.Proc, procs []*proc.Process, blocking bool) error {
	var pending []pendingAck
	for _, pr := range procs {
		pr := pr
		req := &request{kind: "suspend", cost: suspendTime, run: func(dp *des.Proc) {
			pr.RequestSuspend()
			if blocking {
				pr.WaitStopped(dp)
			}
		}}
		cl.post(p, pr, req, blocking)
		if blocking {
			pending = append(pending, pendingAck{pr: pr, req: req})
		}
	}
	return cl.collect(p, pending)
}

// Resume releases suspended target processes (unacknowledged, like the
// asynchronous continue in DPCL). On a crash-prone system the release is
// acknowledged and retransmitted like any other control request: a lost
// resume would otherwise leave the target parked until its daemon is torn
// down, freezing the rank for the rest of the session. A transaction that
// still gives up is abandoned silently — daemon teardown releases whatever
// balance remains.
func (cl *Client) Resume(p *des.Proc, procs []*proc.Process) {
	reliable := cl.sys.crashable
	var pending []pendingAck
	for _, pr := range procs {
		pr := pr
		req := &request{kind: "resume", cost: resumeTime, run: func(dp *des.Proc) {
			pr.Resume()
		}}
		cl.post(p, pr, req, reliable)
		if reliable {
			pending = append(pending, pendingAck{pr: pr, req: req})
		}
	}
	if reliable {
		_ = cl.collect(p, pending)
	}
}

// PostCallback delivers a DPCL_callback message from a target process to
// the client's event mailbox, with the usual daemon-path jitter. Snippets
// running inside the application call this.
func (cl *Client) PostCallback(tag string, rank int) {
	cl.events.PutAfter(cl.sys.delay(), Event{Kind: "callback", Tag: tag, Rank: rank})
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
			// Where daemons track suspends, the stop is credited to this
			// client's daemon so it admits the resume (and releases the
			// stop if it dies); with no live daemon the target runs on.
			if !cl.sys.reclaim && !cl.sys.crashable {
				pr.RequestSuspend()
			} else if d := cl.daemonFor(pr); d != nil && !d.dead {
				pr.RequestSuspend()
				d.holdSuspend(pr)
			}
			cl.events.PutAfter(cl.sys.delay(), Event{Kind: "breakpoint", Tag: name, Rank: pr.Rank()})
		})
	}
}

// ClearBreakpoints removes breakpoint handlers from the targets.
func (cl *Client) ClearBreakpoints(procs []*proc.Process) {
	for _, pr := range procs {
		pr.SetBreakpointHandler(nil)
	}
}
