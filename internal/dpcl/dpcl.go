// Package dpcl simulates the Dynamic Probe Class Library: the daemon
// infrastructure that performs dynamic instrumentation on behalf of a
// tool (Figure 5 of the paper). There is one super daemon per node; it
// authenticates connecting users and creates one communication daemon per
// user connection. The communication daemons attach to target processes
// and actually patch their images.
//
// DPCL is an asynchronous system: every client request travels to the
// node daemons with per-node jittered delays, so "it is unlikely that
// inserted code snippets become active in all processes at the same
// time". Blocking client calls wait for all daemon acknowledgements.
package dpcl

import (
	"fmt"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// Cost model for daemon-side operations, calibrated against the paper's
// Figure 9 (tens of seconds to create and instrument the ASCI kernels).
const (
	// installTime is daemon time to allocate trampoline space, generate
	// snippet code and patch one probe point in a target's address space.
	installTime = 25 * des.Millisecond
	// toggleTime is daemon time to activate/deactivate an installed probe.
	toggleTime = 2 * des.Millisecond
	// removeTime is daemon time to unlink and free one probe.
	removeTime = 8 * des.Millisecond
	// suspendTime / resumeTime are daemon costs around process control.
	suspendTime = 500 * des.Microsecond
	resumeTime  = 500 * des.Microsecond
	// connectTime is the super daemon's per-connection authentication
	// plus communication-daemon creation cost.
	connectTime = 60 * des.Millisecond
	// clientRequestCycles is client-side CPU work to marshal one request.
	clientRequestCycles = 1_200_000
)

// Job-creation cost model: spawning the target under poe (Section 3.3's
// "internally, dynprof makes a call to initiate the application using
// poe") dominated by per-process loader/daemon work.
const (
	createBase    = 8 * des.Second
	createPerNode = 400 * des.Millisecond
	createPerProc = 450 * des.Millisecond
)

// CreateCost models the time for poe plus the DPCL daemons to spawn a
// held target application across the given nodes and processes.
func CreateCost(nodes, procs int) des.Time {
	return createBase + des.Time(nodes)*createPerNode + des.Time(procs)*createPerProc
}

// ServeGate arbitrates daemon service time between users sharing a node.
// When set on a System, every costed daemon-side action passes through
// Serve instead of a plain Advance: the gate decides when the daemon Proc
// actually spends the cost (e.g. weighted round-robin between tenants), and
// must advance p by cost before returning. A nil gate is the single-tenant
// model: first-come first-served per daemon, no cross-user arbitration.
type ServeGate interface {
	Serve(p *des.Proc, node int, user, kind string, cost des.Time)
}

// System is the DPCL installation on a machine: the set of super daemons.
type System struct {
	s      *des.Scheduler
	mach   *machine.Config
	rng    *des.RNG
	supers map[int]*superDaemon
	// clients maps each connected user to its client, so a restarting
	// daemon can notify the user's client of the new incarnation.
	clients map[string]*Client
	// inj injects the machine's control-path faults (message loss and
	// extra delay). Nil on a fault-free machine, in which case every path
	// below is exactly the pre-fault model.
	inj *fault.Injector
	// crashable is true when the fault plan schedules daemon crashes; it
	// gates the incarnation/teardown bookkeeping so crash-free systems pay
	// nothing for it.
	crashable bool
	// gate, when non-nil, fair-schedules daemon service time between the
	// users sharing each node (see ServeGate).
	gate ServeGate
	// patience widens every retransmission timeout (see SetRetryPatience);
	// zero falls back to crashPatience on crashable systems only.
	patience des.Time
	// free is the request free list (see newRequest and recycle). It lives
	// on the System rather than on each Client because sessions are short:
	// a per-client list would leave most requests unrecycled.
	free []*request
	// reqBuf and procBuf lend scratch slices to control transactions.
	reqBuf  scratch[*request]
	procBuf scratch[*proc.Process]
}

// NewSystem starts DPCL on the machine (super daemons are materialised
// lazily per node).
func NewSystem(s *des.Scheduler, mach *machine.Config) *System {
	sys := &System{s: s, mach: mach, rng: s.RNG().Fork(), supers: make(map[int]*superDaemon),
		clients: make(map[string]*Client)}
	if plan := mach.FaultPlan(); !plan.IsZero() {
		sys.inj = fault.NewInjector(plan, s.RNG().Fork())
		sys.crashable = plan.HasDaemonCrashes()
	}
	return sys
}

// Faults returns the system's fault injector (nil on a fault-free
// machine); its event log records drops, retries and timeouts.
func (sys *System) Faults() *fault.Injector { return sys.inj }

// SetServeGate installs g as the system's daemon-time arbiter. Must be set
// before daemons start serving costed requests; a nil g restores the
// ungated single-tenant model.
func (sys *System) SetServeGate(g ServeGate) { sys.gate = g }

// SetRetryPatience widens every retransmission timeout by d. The default
// timeout is derived from the control round trip plus the request's own
// daemon-side cost, which undershoots when the bottleneck is the target:
// suspending a long-slice resident job waits for a safe point the daemon
// cannot hurry. Servers hosting such jobs set the safe-point bound here so
// a slow ack is not mistaken for a lost message. Zero restores the
// default (crashable systems then fall back to crashPatience).
func (sys *System) SetRetryPatience(d des.Time) { sys.patience = d }

// CommDaemons reports the number of live communication daemons across all
// super daemons — the resource eviction must reclaim.
func (sys *System) CommDaemons() int {
	n := 0
	for _, sd := range sys.supers {
		n += len(sd.comms)
	}
	return n
}

// superDaemon is the per-node root daemon ("there is exactly one super
// daemon on each node of the system").
type superDaemon struct {
	node  int
	comms map[string]*commDaemon // per user
}

func (sys *System) super(node int) *superDaemon {
	sd, ok := sys.supers[node]
	if !ok {
		sd = &superDaemon{node: node, comms: make(map[string]*commDaemon)}
		sys.supers[node] = sd
		if sys.crashable {
			for _, c := range sys.inj.Plan().CrashesOn(node) {
				c := c
				if c.At < sys.s.Now() {
					continue // the node came up after this crash was due
				}
				sys.s.At(c.At, func() { sys.crashNode(sd, c) })
			}
		}
	}
	return sd
}

// crashNode kills every communication daemon alive on the node at the
// crash instant, in deterministic (sorted-user) order. Daemons attached
// after the crash instant are unaffected.
func (sys *System) crashNode(sd *superDaemon, c fault.DaemonCrash) {
	users := make([]string, 0, len(sd.comms))
	for u := range sd.comms {
		users = append(users, u)
	}
	sort.Strings(users)
	for _, u := range users {
		sys.crashDaemon(sd.comms[u], c.RestartDelay())
	}
}

// crashDaemon kills one communication daemon. An idle daemon (parked on
// its inbox) dies immediately; a daemon mid-request finishes that request
// first — the DES fair scheduler's service lane must never be abandoned
// mid-grant — and then dies, which models the tracer crashing at its next
// cancellation point.
func (sys *System) crashDaemon(d *commDaemon, restart des.Time) {
	if d.dead || d.dying {
		return
	}
	d.restartDelay = restart
	if d.idle {
		sys.s.Kill(d.proc)
		d.commitCrash()
	} else {
		d.dying = true
	}
}

// restartDaemon respawns a crashed daemon with the next incarnation
// number, unless the user has disconnected in the meantime (the super
// daemon's registry no longer names the dead daemon).
func (sys *System) restartDaemon(old *commDaemon) {
	sd := sys.supers[old.node]
	if sd == nil || sd.comms[old.user] != old {
		return
	}
	nd := newCommDaemonIncarn(sys, old.node, old.user, old.incarn+1)
	sd.comms[old.user] = nd
	sys.inj.Record(sys.s.Now(), fault.KindDaemonRestart, old.node, -1,
		fmt.Sprintf("dpcld %s incarnation %d up", old.user, nd.incarn))
	if cl := sys.clients[old.user]; cl != nil {
		cl.noteRestart(old.node, nd)
	}
}

// commDaemon handles one user's instrumentation requests on one node.
type commDaemon struct {
	sys   *System
	node  int
	user  string
	inbox *des.Mailbox
	proc  *des.Proc
	// incarn is the daemon's incarnation number: 0 for the original
	// daemon, bumped on every crash/restart cycle. Requests carry the
	// incarnation the client believes in; a mismatch fences the request.
	incarn uint64
	// idle is true while the daemon is parked on its inbox — the only
	// point where a crash may kill it instantly.
	idle bool
	// dying marks a crash that arrived mid-request: the daemon commits the
	// crash after the current request completes.
	dying bool
	// dead marks a committed crash; the struct is inert from then on.
	dead         bool
	restartDelay des.Time
	// lastArrive enforces FIFO delivery on the client→daemon connection:
	// individual messages see jittered latency, but they cannot overtake
	// one another (the connection is a stream).
	lastArrive des.Time
	// inflight holds the messages sent but not yet arrived, from inHead on.
	// Because of lastArrive, arrival events fire in send order, so every
	// arrival is the one cached arrive func taking the oldest message.
	inflight []any
	inHead   int
	arrive   func()
	// suspended tracks, per target, suspends this daemon applied minus
	// resumes it applied; suspOrder keeps release order deterministic.
	suspended map[*proc.Process]int
	suspOrder []*proc.Process
	// handles tracks probes this incarnation installed, by idempotency
	// token (only on crashable systems): a crash tears its patches out of
	// the targets, which is what clients must repair by ledger replay.
	handles     map[uint64]*image.ProbeHandle
	handleOrder []uint64
}

// deliver schedules m's arrival at the daemon after a jittered latency,
// never before previously sent messages. Under a fault plan, requests can
// be silently lost (the client retransmits on ack timeout) and latency is
// stretched by the plan's delay factor. Lost messages do not advance the
// FIFO horizon: they never occupied the stream.
func (d *commDaemon) deliver(m any) {
	sys := d.sys
	if req, isReq := m.(*request); isReq {
		if sys.inj.CtrlLostAt(sys.s.Now()) {
			sys.inj.Record(sys.s.Now(), fault.KindCtrlDrop, d.node, reqRank(req), req.kind.String()+" request lost (outage)")
			return
		}
		if sys.inj.DropCtrl() {
			sys.inj.Record(sys.s.Now(), fault.KindCtrlDrop, d.node, reqRank(req), req.kind.String()+" request lost")
			return
		}
	}
	at := sys.s.Now() + sys.inj.ScaleCtrl(sys.Delay())
	if at < d.lastArrive {
		at = d.lastArrive
	}
	d.lastArrive = at
	if d.inHead > 0 && len(d.inflight) == cap(d.inflight) {
		n := copy(d.inflight, d.inflight[d.inHead:])
		clear(d.inflight[n:])
		d.inflight, d.inHead = d.inflight[:n], 0
	}
	d.inflight = append(d.inflight, m)
	sys.s.At(at, d.arrive)
}

// arriveNext moves the oldest in-flight message into the inbox.
func (d *commDaemon) arriveNext() {
	m := d.inflight[d.inHead]
	d.inflight[d.inHead] = nil
	d.inHead++
	if d.inHead == len(d.inflight) {
		d.inflight, d.inHead = d.inflight[:0], 0
	}
	d.inbox.Put(m)
}

// reqRank identifies a request's target rank for fault events.
func reqRank(req *request) int {
	if req.target == nil {
		return -1
	}
	return req.target.Rank()
}

// newCommDaemon spawns the daemon's service loop (incarnation 0).
func newCommDaemon(sys *System, node int, user string) *commDaemon {
	return newCommDaemonIncarn(sys, node, user, 0)
}

// newCommDaemonIncarn spawns a daemon with an explicit incarnation number
// (restarts of a crashed daemon reuse the node/user pair with a bumped
// incarnation; names stay byte-identical for incarnation 0).
func newCommDaemonIncarn(sys *System, node int, user string, incarn uint64) *commDaemon {
	suffix := ""
	if incarn > 0 {
		suffix = fmt.Sprintf(".r%d", incarn)
	}
	d := &commDaemon{
		sys:    sys,
		node:   node,
		user:   user,
		incarn: incarn,
		inbox:  des.NewMailbox(sys.s, fmt.Sprintf("dpcld.%d.%s%s", node, user, suffix)),
	}
	d.arrive = d.arriveNext
	d.proc = sys.s.Spawn(fmt.Sprintf("dpcld@%d/%s%s", node, user, suffix), func(p *des.Proc) { d.serve(p) })
	d.proc.SetDaemon(true)
	return d
}

// reqKind names a request's daemon-side action.
type reqKind uint8

const (
	kindInstall reqKind = iota
	kindToggle
	kindRemove
	kindSuspend
	kindResume
)

var kindNames = [...]string{"install", "toggle", "remove", "suspend", "resume"}

func (k reqKind) String() string { return kindNames[k] }

// request is one unit of work for a communication daemon. Requests come
// from the System's free list (see newRequest); DESIGN.md describes who
// owns a request at each step of its round trip.
type request struct {
	kind   reqKind
	target *proc.Process
	cost   des.Time
	// run is the install action; every other kind is executed by
	// commDaemon.execute from the typed fields below.
	run func(p *des.Proc)
	// probe and active parameterise toggles; probe alone, removes.
	probe  *Probe
	active bool
	// err is a remove's daemon-side failure, read by collect.
	err error
	// wantReply marks an acknowledged request: the daemon acks into reply,
	// and putAck (bound to this request once, at allocation) delivers it.
	// An acknowledged suspend is a blocking one.
	wantReply bool
	reply     des.Mailbox
	putAck    func()
	// token is the request's idempotency token: the daemon executes each
	// token at most once per incarnation, so retransmits and ledger
	// replays can never double-install. Assigned by Client.post; ledger
	// installs reuse their entry's stable per-target token forever.
	token uint64
	// expect is the daemon incarnation the client believed in when it
	// (re)posted the request; a daemon with a different incarnation fences
	// the request off with a stale nack instead of executing it.
	expect uint64
	// installed is set by install actions to the handle they patched in,
	// so the daemon can track (and a crash can tear out) its own probes.
	installed *image.ProbeHandle
}

// shutdownReq stops a daemon loop (used on Client.Disconnect).
type shutdownReq struct{}

// newRequest takes a request of the given kind from the free list, or
// allocates one with its reply mailbox and ack delivery bound to it.
func (sys *System) newRequest(kind reqKind, cost des.Time) *request {
	var req *request
	if n := len(sys.free); n > 0 {
		req = sys.free[n-1]
		sys.free[n-1] = nil
		sys.free = sys.free[:n-1]
	} else {
		req = &request{reply: des.MakeMailbox(sys.s, "dpcl.reply")}
		req.putAck = func() { req.reply.Put(ackOK) }
	}
	req.kind, req.cost = kind, cost
	return req
}

// recycle returns a finished request to the free list. The caller must be
// its last owner: the client after collect for an acknowledged request,
// the daemon after execution for an unacknowledged one. A system with a
// fault injector never recycles: a retransmit can deliver the same
// request, or its ack, after the transaction has ended, and a recycled
// request would hand that stale message to a later transaction.
func (sys *System) recycle(req *request) {
	if sys.inj != nil {
		return
	}
	req.target, req.run, req.probe, req.err = nil, nil, nil, nil
	req.active, req.wantReply = false, false
	req.token, req.expect, req.installed = 0, 0, nil
	sys.free = append(sys.free, req)
}

// scratch is a free list of reusable slices. Each control transaction in
// flight borrows its own, so transactions of different clients (and nested
// ones) never share elements.
type scratch[T any] struct{ free [][]T }

// take borrows an empty slice (nil when none is free).
func (sc *scratch[T]) take() []T {
	n := len(sc.free)
	if n == 0 {
		return nil
	}
	b := sc.free[n-1]
	sc.free[n-1] = nil
	sc.free = sc.free[:n-1]
	return b
}

// give returns a borrowed slice, dropping its element references.
func (sc *scratch[T]) give(b []T) {
	if cap(b) == 0 {
		return
	}
	clear(b)
	sc.free = append(sc.free, b[:0])
}

func (d *commDaemon) serve(p *des.Proc) {
	// done dedups retransmitted and replayed requests by idempotency
	// token: the action ran once, lost acks are simply re-sent. Allocated
	// only on faulted systems — retransmission cannot happen without
	// faults — and per incarnation, so a restarted daemon re-executes
	// replayed installs exactly once.
	var done map[uint64]bool
	for {
		d.idle = true
		m := p.Recv(d.inbox)
		d.idle = false
		if _, stop := m.(shutdownReq); stop {
			d.releaseSuspends()
			return
		}
		req := m.(*request)
		if req.token != 0 && done[req.token] {
			d.ackTo(req)
			continue
		}
		if req.expect != d.incarn {
			d.nackStale(req)
			continue
		}
		// The process-level suspend count has no notion of ownership, so an
		// unbalanced resume from this client would release some other
		// controller's window — and if that controller's blocking suspend is
		// still parked in WaitStopped, zeroing the count strands it forever
		// (the threads never stop once the window evaporates). Execute a
		// resume only against this daemon's own tracked balance. The
		// request is still acked below: resuming an unsuspended process is a
		// no-op, not an error.
		skip := req.kind == kindResume && d.suspended[req.target] == 0
		if req.cost > 0 {
			if g := d.sys.gate; g != nil {
				g.Serve(p, d.node, d.user, req.kind.String(), req.cost)
			} else {
				p.Advance(req.cost)
			}
		}
		if !skip {
			d.execute(p, req)
		}
		if req.installed != nil && d.sys.crashable {
			if d.handles == nil {
				d.handles = make(map[uint64]*image.ProbeHandle)
			}
			d.handles[req.token] = req.installed
			d.handleOrder = append(d.handleOrder, req.token)
			req.installed = nil
		}
		d.trackSuspend(req)
		if d.sys.inj != nil && req.token != 0 {
			if done == nil {
				done = make(map[uint64]bool)
			}
			done[req.token] = true
		}
		d.ackTo(req)
		if !req.wantReply {
			d.sys.recycle(req)
		}
		if d.dying {
			d.commitCrash()
			return
		}
	}
}

// execute performs a request's daemon-side action. Handles are resolved at
// execution time: a crash may have torn the original out and a replay
// re-installed a fresh one.
func (d *commDaemon) execute(p *des.Proc, req *request) {
	pr := req.target
	switch req.kind {
	case kindInstall:
		req.run(p)
	case kindToggle:
		if h := req.probe.hands[pr]; h != nil && !h.Removed() {
			h.SetActive(req.active)
		}
	case kindRemove:
		if h := req.probe.hands[pr]; h != nil && !h.Removed() { // else a daemon crash tore it out
			req.err = h.Remove()
		}
	case kindSuspend:
		pr.RequestSuspend()
		if req.wantReply {
			pr.WaitStopped(p)
		}
	case kindResume:
		pr.Resume()
	}
}

// commitCrash finalises a daemon crash: its probes are torn out of the
// targets (the tracer that owned the trampolines is gone, so events stop
// flowing until a replay reinstalls them), stranded suspends are released
// (the node-local kernel reaps the ptrace stops), and the super daemon is
// scheduled to respawn the daemon after the restart delay.
func (d *commDaemon) commitCrash() {
	sys := d.sys
	d.dead = true
	d.dying = false
	sys.inj.Record(sys.s.Now(), fault.KindDaemonCrash, d.node, -1,
		fmt.Sprintf("dpcld %s incarnation %d killed", d.user, d.incarn))
	for _, tok := range d.handleOrder {
		if h := d.handles[tok]; h != nil && !h.Removed() {
			h.Remove() // the owner is dead; the error has nowhere to go
		}
	}
	d.handles, d.handleOrder = nil, nil
	d.releaseSuspends()
	old := d
	sys.s.After(d.restartDelay, func() { sys.restartDaemon(old) })
}

// nackStale refuses a request carrying a previous incarnation's number:
// the daemon that staged its context is gone, so executing it blind could
// double-install or touch freed trampolines. The nack tells the client to
// reconcile (replay its ledger) and re-post with the new incarnation.
func (d *commDaemon) nackStale(req *request) {
	sys := d.sys
	sys.inj.Record(sys.s.Now(), fault.KindCtrlStale, d.node, reqRank(req),
		fmt.Sprintf("%s fenced (incarnation %d, daemon at %d)", req.kind, req.expect, d.incarn))
	if !req.wantReply {
		return
	}
	if sys.inj.CtrlLostAt(sys.s.Now()) || sys.inj.DropCtrl() {
		sys.inj.Record(sys.s.Now(), fault.KindCtrlDrop, d.node, reqRank(req), req.kind.String()+" stale nack lost")
		return
	}
	req.reply.PutAfter(sys.inj.ScaleCtrl(sys.Delay()), ackStale)
}

// trackSuspend maintains the daemon's suspend balance per target, so a
// shutting-down daemon can release the suspends it applied but never saw
// resumed: on a lossy control path a client's unacknowledged resume can
// vanish, and the daemon, node-local to the target, still knows the
// balance. Retransmitted requests never reach here: the done
// map re-acks them without re-execution.
func (d *commDaemon) trackSuspend(req *request) {
	switch req.kind {
	case kindSuspend:
		d.holdSuspend(req.target)
	case kindResume:
		if d.suspended[req.target] > 0 {
			d.suspended[req.target]--
		}
	}
}

// holdSuspend credits one suspend of pr to this daemon's balance.
func (d *commDaemon) holdSuspend(pr *proc.Process) {
	if d.suspended == nil {
		d.suspended = make(map[*proc.Process]int)
	}
	if d.suspended[pr] == 0 {
		d.suspOrder = append(d.suspOrder, pr)
	}
	d.suspended[pr]++
}

// releaseSuspends resumes every target this daemon still holds suspended,
// in first-suspended order. Runs at daemon shutdown: the daemon shares the
// node with its targets, so the release cannot be lost to control faults
// the way a client's resume message can.
func (d *commDaemon) releaseSuspends() {
	for _, pr := range d.suspOrder {
		for n := d.suspended[pr]; n > 0; n-- {
			pr.Resume()
		}
	}
	d.suspended = nil
	d.suspOrder = nil
}

// ackTo sends the acknowledgement back to the client with its own jitter;
// under a fault plan the ack itself can be lost.
func (d *commDaemon) ackTo(req *request) {
	if !req.wantReply {
		return
	}
	sys := d.sys
	if sys.inj.CtrlLostAt(sys.s.Now()) {
		sys.inj.Record(sys.s.Now(), fault.KindCtrlDrop, d.node, reqRank(req), req.kind.String()+" ack lost (outage)")
		return
	}
	if sys.inj.DropCtrl() {
		sys.inj.Record(sys.s.Now(), fault.KindCtrlDrop, d.node, reqRank(req), req.kind.String()+" ack lost")
		return
	}
	sys.s.After(sys.inj.ScaleCtrl(sys.Delay()), req.putAck)
}

// ack is a daemon's reply to an acknowledged request. Only two values are
// ever sent, both shared and immutable: ackOK, and ackStale, the fencing
// nack for a request that carried a previous incarnation's number.
type ack struct{ stale bool }

var ackOK, ackStale any = ack{}, ack{stale: true}

// Delay draws one jittered control-message latency — the per-node delivery
// variance that makes DPCL asynchronous. Exposed so tools can model
// actions that bypass the request path (e.g. resetting a spin variable in
// a target's memory).
func (sys *System) Delay() des.Time {
	return sys.rng.Jitter(sys.mach.DaemonLatency, sys.mach.DaemonJitter)
}

// Event is an asynchronous notification delivered to a client: a snippet
// callback (DPCL_callback) or a breakpoint hit.
type Event struct {
	// Kind is "callback" or "breakpoint".
	Kind string
	// Tag is the callback tag or breakpoint symbol.
	Tag string
	// Rank identifies the originating process.
	Rank int
}

// Client is an instrumenter's connection to DPCL.
type Client struct {
	sys    *System
	user   string
	events *des.Mailbox
	byNode map[int]*commDaemon
	procs  []*proc.Process
	nodes  map[*proc.Process]int

	// nextToken feeds idempotency-token assignment (see request.token).
	nextToken uint64
	// ledger is the client's desired probe state, in install order; it is
	// what a restarted daemon's node is reconverged to by replay.
	ledger  []*ledgerEntry
	byProbe map[*Probe]*ledgerEntry
	// stale marks nodes whose daemon restarted (or fenced a request)
	// since the client last reconciled.
	stale map[int]bool
	// reconciling guards against reentrant replay: the repair pass itself
	// issues control requests whose acks can report further staleness.
	reconciling bool
	replays     int
	onRestart   func(node int)
}

// Connect authenticates user against the super daemons; per-node
// communication daemons are created as processes on those nodes are
// attached.
func (sys *System) Connect(user string) *Client {
	cl := &Client{
		sys:    sys,
		user:   user,
		events: des.NewMailbox(sys.s, "dpcl.events."+user),
		byNode: make(map[int]*commDaemon),
		nodes:  make(map[*proc.Process]int),
	}
	sys.clients[user] = cl
	return cl
}

// Attach connects the client to the target processes, creating (and
// paying for) one communication daemon per distinct node. p is the
// client's own simulated process.
func (cl *Client) Attach(p *des.Proc, procs []*proc.Process) {
	for _, pr := range procs {
		node := pr.Node()
		cl.nodes[pr] = node
		if _, ok := cl.byNode[node]; ok {
			continue
		}
		sd := cl.sys.super(node)
		d, ok := sd.comms[cl.user]
		if !ok {
			// Round trip to the super daemon plus daemon creation.
			p.Advance(cl.sys.Delay())
			p.Advance(connectTime)
			d = newCommDaemon(cl.sys, node, cl.user)
			sd.comms[cl.user] = d
		}
		cl.byNode[node] = d
	}
	cl.procs = append(cl.procs, procs...)
}

// Events returns the client's notification mailbox; instrumenters Recv on
// it for callbacks and breakpoint hits.
func (cl *Client) Events() *des.Mailbox { return cl.events }

// Targets returns the processes the client is attached to.
func (cl *Client) Targets() []*proc.Process { return append([]*proc.Process(nil), cl.procs...) }

// daemonFor resolves the communication daemon serving pr.
func (cl *Client) daemonFor(pr *proc.Process) *commDaemon {
	node, ok := cl.nodes[pr]
	if !ok {
		panic(fmt.Sprintf("dpcl: client %s not attached to %s", cl.user, pr.Name()))
	}
	return cl.byNode[node]
}

// post sends one request to pr's daemon with transmission jitter, charging
// the client's marshalling cost. With reply set, the daemon acknowledges
// into req.reply and the caller must collect the request.
func (cl *Client) post(p *des.Proc, pr *proc.Process, req *request, reply bool) {
	p.Advance(cl.sys.mach.CyclesToTime(clientRequestCycles))
	req.wantReply = reply
	req.target = pr
	if req.token == 0 {
		cl.nextToken++
		req.token = cl.nextToken
	}
	// A repair proc's replay can race the session's own eviction or quit:
	// Disconnect tears the daemon bindings out from under it. Posting into
	// the void is safe — the collect loop's timeouts bound the wait — and
	// only reachable on crashable systems, where collects always time-bound.
	d := cl.daemonFor(pr)
	if d == nil {
		return
	}
	req.expect = d.incarn
	d.deliver(req)
}

// Retry policy for acknowledged requests on a faulted control path: the
// first retransmission timeout covers a round trip plus the daemon-side
// action, and backs off exponentially. Under total message loss a
// transaction gives up after retryAttempts tries — bounded virtual time,
// never a hung DES.
const (
	retrySlackFactor = 4
	retryAttempts    = 6
)

// crashPatience is the extra per-attempt grace a crash-aware client adds
// to its retransmit timer. Under a plan that crashes daemons, a request
// that looks lost is more often just parked: behind a daemon restart
// window, or behind a suspend waiting for its target to reach the next
// safe point (coarse-grained targets take hundreds of milliseconds between
// safe points). Retransmitting into that wait only wastes daemon time, and
// giving up on it falsely evicts healthy sessions. Loss-only plans keep
// the tight timer — there a silent daemon really does mean a lost message,
// and fast retransmission is what recovers it.
const crashPatience = 250 * des.Millisecond

// maxFenceRounds bounds how many times one collect will reconcile and
// re-post requests fenced by daemon restarts before giving up (each round
// needs a fresh crash to land mid-transaction, so depth means a daemon
// crash-looping faster than the control path can reconverge).
const maxFenceRounds = 8

// collect drains one ack per pending request (blocking the client). On a
// fault-free system this is a plain blocking Recv per ack — the pre-fault
// behaviour. On a faulted system each ack is awaited with a timeout;
// timeouts retransmit with exponential backoff and eventually give up,
// returning a typed *GiveUpError. Stale nacks (the daemon restarted under
// the request) trigger a ledger reconcile, after which the fenced requests
// are re-posted under the new incarnation — their idempotency tokens make
// the re-post safe even if the original executed before the crash.
//
// A daemon-side failure recorded on a request (a failed remove) is
// reported ahead of any transport error. collect owns the pending requests
// once it is called and recycles them before returning.
func (cl *Client) collect(p *des.Proc, pending []*request) error {
	err := cl.collectRound(p, pending, 0)
	for _, req := range pending {
		if req.err != nil {
			err = req.err
			break
		}
	}
	for _, req := range pending {
		cl.sys.recycle(req)
	}
	return err
}

func (cl *Client) collectRound(p *des.Proc, pending []*request, round int) error {
	if cl.sys.inj == nil {
		for _, req := range pending {
			p.Recv(&req.reply)
		}
		return nil
	}
	var firstErr error
	var fenced []*request
	for _, req := range pending {
		pr := req.target
		rto := cl.sys.inj.ScaleCtrl(retrySlackFactor*cl.sys.mach.DaemonLatency) + req.cost
		if cl.sys.patience > 0 {
			rto += cl.sys.patience
		} else if cl.sys.crashable {
			rto += crashPatience
		}
		acked := false
		for attempt := 0; attempt < retryAttempts; attempt++ {
			if m, ok := p.RecvTimeout(&req.reply, rto<<attempt); ok {
				if m == ackStale {
					cl.noteStale(pr)
					fenced = append(fenced, req)
				}
				acked = true
				break
			}
			if attempt < retryAttempts-1 {
				cl.sys.inj.Record(p.Now(), fault.KindCtrlRetry, pr.Node(), pr.Rank(),
					fmt.Sprintf("%s retransmit #%d", req.kind, attempt+1))
				if d := cl.daemonFor(pr); d != nil {
					d.deliver(req)
				}
			}
		}
		if !acked {
			cl.sys.inj.Record(p.Now(), fault.KindCtrlTimeout, pr.Node(), pr.Rank(),
				fmt.Sprintf("%s gave up after %d attempts", req.kind, retryAttempts))
			if firstErr == nil {
				firstErr = &GiveUpError{Kind: req.kind.String(), Target: pr.Name(), Attempts: retryAttempts}
			}
		}
	}
	if len(fenced) > 0 && firstErr == nil {
		if round >= maxFenceRounds {
			return fmt.Errorf("dpcl: requests still fenced after %d reconcile rounds", round)
		}
		if _, err := cl.Reconcile(p); err != nil {
			return err
		}
		for _, req := range fenced {
			d := cl.daemonFor(req.target)
			if d == nil {
				continue // disconnected mid-collect; the retry budget drains it
			}
			req.expect = d.incarn
			d.deliver(req)
		}
		return cl.collectRound(p, fenced, round+1)
	}
	return firstErr
}

// Disconnect shuts down this client's communication daemons. Probes that
// are active remain active: quitting dynprof "will cause the instrumenter
// to detach from the application; all instrumentation that is active
// prior to quitting will remain active".
//
// Disconnect is idempotent, and it only tears down daemons this client
// still owns: if the super daemon's registry holds a different daemon for
// the user (a later client of the same user reconnected after this one
// disconnected), that replacement is left untouched.
func (cl *Client) Disconnect() {
	seen := make(map[*commDaemon]bool)
	for node, d := range cl.byNode {
		if seen[d] {
			continue
		}
		seen[d] = true
		sd := cl.sys.super(node)
		if sd.comms[cl.user] != d {
			continue // superseded by a reconnect; not ours to kill
		}
		d.deliver(shutdownReq{})
		delete(sd.comms, cl.user)
	}
	cl.byNode = make(map[int]*commDaemon)
	if cl.sys.clients[cl.user] == cl {
		delete(cl.sys.clients, cl.user)
	}
}
