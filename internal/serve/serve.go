package serve

import (
	"errors"
	"fmt"
	"io"
	"sort"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

// Admission and eviction sentinels, matched with errors.Is.
var (
	// ErrRejected is returned by Open when the server is at its session
	// limit and the admission queue is full (or queueing is disabled).
	ErrRejected = errors.New("serve: session rejected (server full)")
	// ErrEvicted is returned by session operations after the session has
	// been evicted for a quota violation or a control-path fault.
	ErrEvicted = errors.New("serve: session evicted")
	// ErrNoJob is returned by Open for an unregistered job name.
	ErrNoJob = errors.New("serve: no such job")
)

// Quota bounds one session's resource consumption. Zero fields are
// unlimited.
type Quota struct {
	// MaxProbes bounds the probes the session may hold installed at once.
	MaxProbes int
	// MaxTraceBytes bounds the trace volume the session's probes generate.
	MaxTraceBytes int64
	// MaxCtrlPerSec bounds the session's control-operation rate (token
	// bucket in virtual time, one token deep).
	MaxCtrlPerSec float64
}

// Config parameterises a Server.
type Config struct {
	// Machine is the simulated cluster the resident jobs run on.
	Machine *machine.Config
	// MaxSessions caps concurrently admitted sessions (<= 0: unlimited).
	MaxSessions int
	// MaxQueue caps sessions waiting for admission once MaxSessions is
	// reached: < 0 queues without bound, 0 rejects immediately, > 0 queues
	// up to MaxQueue then rejects.
	MaxQueue int
	// DefaultQuota applies to every session Open does not override.
	DefaultQuota Quota
	// Lease enables leased sessions: a session whose client link drops is
	// suspended for this grace window instead of being torn down, and a
	// reconnecting client resumes it (probes and quotas intact) by session
	// token. Control operations and heartbeats renew the lease; a
	// suspended session whose lease expires is evicted through the
	// ordinary eviction path. Zero disables leasing (dropped links close
	// their sessions immediately, the pre-lease behaviour).
	Lease des.Time
	// Output receives tool messages from all sessions (nil: discarded).
	Output io.Writer
}

// Stats counts the server's admission and lifecycle decisions.
type Stats struct {
	Admitted  int
	Queued    int
	Rejected  int
	Evicted   int
	Closed    int
	Suspended int
	Resumed   int
	Expired   int
	Recovered int
}

// Eviction records one graceful eviction.
type Eviction struct {
	User   string
	Job    string
	Reason string
	At     des.Time
}

// Recovery records one automatic probe-state repair: a daemon serving the
// session crashed and restarted, and the session's probe ledger was
// replayed against it.
type Recovery struct {
	User string
	// Node is the node whose daemon restarted.
	Node int
	// Probes is the number of per-target probe replays performed.
	Probes int
	// Latency is the virtual time from restart notification to reconverged
	// probe state.
	Latency des.Time
	At      des.Time
}

// Job is one resident target application in the server's registry.
type Job struct {
	name string
	job  *guide.Job
	hot  []string
	stop *des.Gate
}

// Name returns the registry name.
func (jb *Job) Name() string { return jb.name }

// Hot returns the job's instrumentable hot functions.
func (jb *Job) Hot() []string { return append([]string(nil), jb.hot...) }

// Guide returns the underlying launched job.
func (jb *Job) Guide() *guide.Job { return jb.job }

// Server owns the job registry, the shared DPCL installation with its fair
// scheduler, and the admission state. All methods that take a *des.Proc
// must run from inside the simulation; the rest are host-side accessors.
type Server struct {
	s    *des.Scheduler
	cfg  Config
	sys  *dpcl.System
	fair *FairSched

	jobs     map[string]*Job
	jobNames []string
	nextNode int // first free node for the next resident job's placement

	active    int
	admitQ    []*des.Gate
	stats     Stats
	evictions []Eviction

	// Leased-session state: every session gets a token at Open (cheap and
	// deterministic); the suspend/resume machinery only engages when
	// Config.Lease is set.
	tokenSeq   int
	byToken    map[string]*Session
	recoveries []Recovery
}

// New creates a server on s: one shared DPCL System whose daemon time is
// arbitrated by a FairSched.
func New(s *des.Scheduler, cfg Config) *Server {
	if cfg.Output == nil {
		cfg.Output = io.Discard
	}
	sys := dpcl.NewSystem(s, cfg.Machine)
	fair := NewFairSched()
	sys.SetServeGate(fair)
	// Resident ranks reach safe points only every residentSlice of compute,
	// so acks to suspend-bracketed requests can lag the round-trip-derived
	// retransmission timeout by a full slice; widen it or a lossy-but-alive
	// control path gets misread as dead and the tenant wrongly evicted.
	sys.SetRetryPatience(residentSlice + 50*des.Millisecond)
	return &Server{s: s, cfg: cfg, sys: sys, fair: fair,
		jobs: make(map[string]*Job), byToken: make(map[string]*Session)}
}

// Scheduler returns the server's DES.
func (sv *Server) Scheduler() *des.Scheduler { return sv.s }

// System returns the shared DPCL installation.
func (sv *Server) System() *dpcl.System { return sv.sys }

// Fair returns the daemon-time scheduler.
func (sv *Server) Fair() *FairSched { return sv.fair }

// Stats returns a copy of the admission/lifecycle counters.
func (sv *Server) Stats() Stats { return sv.stats }

// Evictions returns the eviction log in time order.
func (sv *Server) Evictions() []Eviction { return append([]Eviction(nil), sv.evictions...) }

// Recoveries returns the probe-state repair log in time order.
func (sv *Server) Recoveries() []Recovery { return append([]Recovery(nil), sv.recoveries...) }

// Session looks a session up by its token ("" for unknown tokens).
func (sv *Server) Session(token string) *Session { return sv.byToken[token] }

// Jobs lists the registered job names, sorted.
func (sv *Server) Jobs() []string {
	names := append([]string(nil), sv.jobNames...)
	sort.Strings(names)
	return names
}

// Job looks up a registered job.
func (sv *Server) Job(name string) *Job { return sv.jobs[name] }

// residentSlice is the virtual compute time of one hot-function call in a
// synthetic resident job. It is deliberately coarse: threads reach safe
// points every slice, so the event rate stays proportional to control
// traffic rather than to resident spinning.
const residentSlice = 200 * des.Millisecond

// residentApp builds the synthetic service application RegisterResident
// runs: ranks iterate over the hot functions until the stop gate opens,
// barrier-synchronised so the final MPI_Finalize converges within one
// iteration of the gate opening. The gate is sampled once per iteration —
// by whichever rank reaches the loop top first — and the decision shared,
// so ranks skewed by instrumentation suspend windows (crash-recovery
// replays stop targets mid-iteration) still agree on the iteration at
// which to finalize instead of splitting the collective sequence.
func residentApp(name string, hot []string, stop *des.Gate) *guide.App {
	funcs := make([]guide.Func, len(hot))
	for i, f := range hot {
		funcs[i] = guide.Func{Name: f, Size: 40}
	}
	decided := make(map[int]bool)
	return &guide.App{
		Name:   name,
		Lang:   guide.MPIC,
		Funcs:  funcs,
		Subset: append([]string(nil), hot...),
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			for it := 0; ; it++ {
				halt, sampled := decided[it]
				if !sampled {
					halt = stop.Open()
					decided[it] = halt
				}
				if halt {
					break
				}
				for i := range funcs {
					c.Call(guide.Fn(i), func() { c.T.WorkTime(residentSlice) })
				}
				c.MPI.Barrier()
			}
			c.MPI.Finalize()
		},
	}
}

// RegisterResident launches a released synthetic job under the registry
// name with the given rank count and hot functions (defaults to four
// generated ones). The job runs until Shutdown opens its stop gate.
func (sv *Server) RegisterResident(name string, procs int, hot []string) (*Job, error) {
	if _, dup := sv.jobs[name]; dup {
		return nil, fmt.Errorf("serve: job %q already registered", name)
	}
	if len(hot) == 0 {
		hot = []string{name + "_solve", name + "_exchange", name + "_relax", name + "_residual"}
	}
	stop := des.NewGate(name+".stop", false)
	bin, err := guide.Build(residentApp(name, hot, stop), guide.BuildOpts{})
	if err != nil {
		return nil, err
	}
	// Place consecutive jobs on disjoint node ranges, like a batch
	// scheduler: tenants of different jobs then contend only for their own
	// job's daemons, not one hot node-0 lane.
	job, err := guide.Launch(sv.s, sv.cfg.Machine, bin, guide.LaunchOpts{Procs: procs, Node: sv.nextNode})
	if err != nil {
		return nil, err
	}
	sv.nextNode += (procs + sv.cfg.Machine.CPUsPerNode - 1) / sv.cfg.Machine.CPUsPerNode
	jb := &Job{name: name, job: job, hot: append([]string(nil), hot...), stop: stop}
	sv.jobs[name] = jb
	sv.jobNames = append(sv.jobNames, name)
	return jb, nil
}

// Shutdown opens every job's stop gate so resident ranks run to their
// MPI_Finalize; callable from host code or event context.
func (sv *Server) Shutdown() {
	for _, name := range sv.jobNames {
		sv.jobs[name].stop.Set(true)
	}
}

// Open admits a session for user against the named job: it enforces the
// concurrency limit (queueing or rejecting per Config), waits for the
// job's tracing library to be ready, and attaches through the shared DPCL
// System so the session's control traffic is fair-scheduled against every
// other tenant's. quota == nil applies Config.DefaultQuota.
func (sv *Server) Open(p *des.Proc, user, jobName string, quota *Quota) (*Session, error) {
	jb, ok := sv.jobs[jobName]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoJob, jobName)
	}
	if sv.cfg.MaxSessions > 0 && sv.active >= sv.cfg.MaxSessions {
		if sv.cfg.MaxQueue >= 0 && len(sv.admitQ) >= sv.cfg.MaxQueue {
			sv.stats.Rejected++
			return nil, ErrRejected
		}
		g := des.NewGate("admit."+user, false)
		sv.admitQ = append(sv.admitQ, g)
		sv.stats.Queued++
		p.Await(g) // the releasing session transferred its slot to us
	} else {
		sv.active++
	}
	sv.stats.Admitted++

	for !jb.job.VTReady() {
		p.Advance(des.Millisecond)
	}
	q := sv.cfg.DefaultQuota
	if quota != nil {
		q = *quota
	}
	sv.tokenSeq++
	sn := &Session{sv: sv, user: user, jb: jb, quota: q, lastRefill: p.Now(),
		token: fmt.Sprintf("sess-%06d", sv.tokenSeq)}
	ss, err := core.AttachSessionWith(p, sv.cfg.Machine, jb.job, core.AttachConfig{
		System:  sv.sys,
		User:    user,
		Output:  sv.cfg.Output,
		OnTrace: sn.onTrace,
	})
	if err != nil {
		sv.releaseSlot()
		return nil, err
	}
	sn.ss = ss
	sv.byToken[sn.token] = sn
	ss.SetRecoverObserver(func(node, replayed int, latency des.Time) {
		sv.stats.Recovered++
		sv.recoveries = append(sv.recoveries,
			Recovery{User: user, Node: node, Probes: replayed, Latency: latency, At: sv.s.Now()})
	})
	return sn, nil
}

// SuspendSession parks a session whose client link dropped: the session
// keeps its probes and quotas, its lease is renewed to a full grace
// window, and an expiry watcher is armed. The watcher is armed
// only here — connected sessions schedule no lease events — so a leased
// server that never loses a link runs the exact event sequence of an
// unleased one. No-op when leasing is disabled or the session is already
// suspended, evicted, or closed.
func (sv *Server) SuspendSession(sn *Session) {
	if sv.cfg.Lease <= 0 || sn.suspended || sn.evicted || sn.closed {
		return
	}
	sn.suspended = true
	sn.leaseUntil = sv.s.Now() + sv.cfg.Lease
	sv.stats.Suspended++
	sv.armLease(sn)
}

// ResumeSession re-binds a reconnecting client to its suspended session by
// token: the session resumes with probes and quotas intact, and a fresh
// lease. Evicted sessions report why (errors.Is
// ErrEvicted); unknown tokens, closed sessions, and sessions that were
// never suspended are errors.
func (sv *Server) ResumeSession(token string) (*Session, error) {
	sn, ok := sv.byToken[token]
	if !ok {
		return nil, fmt.Errorf("serve: no session with token %q", token)
	}
	if sn.evicted {
		return nil, fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	if sn.closed {
		return nil, fmt.Errorf("serve: session %s is closed", sn.user)
	}
	if !sn.suspended {
		return nil, fmt.Errorf("serve: session %s is not suspended", sn.user)
	}
	sn.suspended = false
	sn.leaseUntil = sv.s.Now() + sv.cfg.Lease
	sv.stats.Resumed++
	return sn, nil
}

// armLease schedules the expiry check for a suspended session. At most one
// watcher per session is in flight; renewals move leaseUntil forward and
// the watcher re-schedules itself instead of firing.
func (sv *Server) armLease(sn *Session) {
	if sn.watching {
		return
	}
	sn.watching = true
	sv.s.At(sn.leaseUntil, func() { sv.checkLease(sn) })
}

// checkLease runs at a suspended session's scheduled expiry: if the
// session resumed, closed, or was evicted the watcher disarms; if the
// lease was renewed it re-schedules; otherwise the lease has truly expired
// and a reaper evicts the session through the ordinary eviction path.
func (sv *Server) checkLease(sn *Session) {
	if sn.closed || sn.evicted || !sn.suspended {
		sn.watching = false
		return
	}
	if sv.s.Now() < sn.leaseUntil {
		sv.s.At(sn.leaseUntil, func() { sv.checkLease(sn) })
		return
	}
	sn.watching = false
	sv.stats.Expired++
	sv.s.Spawn("lease-reap."+sn.user, func(p *des.Proc) {
		sv.evict(p, sn, fmt.Sprintf("lease expired (%.3gs grace)", sv.cfg.Lease.Seconds()))
	})
}

// releaseSlot frees one admission slot, handing it to the oldest queued
// session if any (the slot transfers: active does not drop).
func (sv *Server) releaseSlot() {
	if len(sv.admitQ) > 0 {
		g := sv.admitQ[0]
		sv.admitQ = sv.admitQ[1:]
		g.Set(true)
		return
	}
	sv.active--
}

// evict gracefully removes a faulted or quota-violating session: its
// probes are removed via the ordinary remove machinery (best effort — on a
// faulted control path the removes themselves may time out), its daemons
// are torn down, and its admission slot is released. Idempotent: a second
// eviction (or an eviction racing a close — e.g. a lease reaper firing
// while the tenant's own quota eviction is in flight) is a strict no-op,
// so the slot is released and the stats bumped exactly once.
func (sv *Server) evict(p *des.Proc, sn *Session, reason string) {
	if sn.evicted || sn.closed {
		return
	}
	sn.evicted = true
	sn.evictReason = reason
	sn.suspended = false
	_ = sn.ss.RemoveAll(p)
	sn.ss.Quit(p)
	sv.releaseSlot()
	sv.stats.Evicted++
	sv.evictions = append(sv.evictions, Eviction{User: sn.user, Job: sn.jb.name, Reason: reason, At: p.Now()})
	fmt.Fprintf(sv.cfg.Output, "serve: evicted %s from %s: %s\n", sn.user, sn.jb.name, reason)
}
