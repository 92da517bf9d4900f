package serve

import (
	"fmt"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// Session is one tenant's connection to a resident job: a namespaced
// core.Session (the tenant's DPCL user gets its own comm daemons) wrapped
// with quota enforcement and control-latency accounting. Operations must
// run from the session's own simulated Proc.
type Session struct {
	sv    *Server
	user  string
	jb    *Job
	ss    *core.Session
	quota Quota

	// Token bucket for MaxCtrlPerSec, refilled in virtual time.
	tokens     float64
	filled     bool
	lastRefill des.Time

	traceEvents int64
	samples     []des.Time

	evicted     bool
	evictReason string
	closed      bool

	// Leased-session state (see Config.Lease). token identifies the session
	// across reconnects; seq carries the protocol bridge's request-sequence
	// state so duplicate suppression survives a resume on a new connection.
	token      string
	leaseUntil des.Time
	suspended  bool
	watching   bool
	seq        seqState
}

// User returns the session's DPCL user name.
func (sn *Session) User() string { return sn.user }

// Job returns the registry job the session instruments.
func (sn *Session) Job() *Job { return sn.jb }

// Evicted reports whether the session has been evicted, and why.
func (sn *Session) Evicted() (bool, string) { return sn.evicted, sn.evictReason }

// Token returns the session's resume token (assigned at Open).
func (sn *Session) Token() string { return sn.token }

// Suspended reports whether the session is parked awaiting a resume.
func (sn *Session) Suspended() bool { return sn.suspended }

// LeaseUntil returns the virtual deadline of the current lease (zero when
// leasing is disabled or no control op has renewed it yet).
func (sn *Session) LeaseUntil() des.Time { return sn.leaseUntil }

// renewLease pushes the lease deadline a full grace window out. Free when
// leasing is disabled.
func (sn *Session) renewLease(now des.Time) {
	if sn.sv.cfg.Lease > 0 {
		sn.leaseUntil = now + sn.sv.cfg.Lease
	}
}

// Heartbeat renews the session's lease without performing a control
// operation (the protocol bridge's beat command). Evicted and closed
// sessions fail like any other op.
func (sn *Session) Heartbeat(p *des.Proc) error {
	if sn.closed {
		return fmt.Errorf("serve: session %s is closed", sn.user)
	}
	if sn.evicted {
		return fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	sn.renewLease(p.Now())
	return nil
}

// TraceBytes reports the trace volume this session's probes have generated.
func (sn *Session) TraceBytes() int64 { return sn.traceEvents * vt.EventBytes }

// Latencies returns the virtual latency of every completed control
// operation, in issue order.
func (sn *Session) Latencies() []des.Time { return append([]des.Time(nil), sn.samples...) }

// onTrace is the core.Session trace observer (runs inside probe snippets).
func (sn *Session) onTrace(events int) { sn.traceEvents += int64(events) }

// takeToken enforces MaxCtrlPerSec: one token per control op, refilled at
// the quota rate in virtual time. Reports false when the bucket is empty.
func (sn *Session) takeToken(now des.Time) bool {
	if sn.quota.MaxCtrlPerSec <= 0 {
		return true
	}
	if !sn.filled {
		sn.tokens, sn.filled = 1, true
	} else {
		sn.tokens = min(1, sn.tokens+(now-sn.lastRefill).Seconds()*sn.quota.MaxCtrlPerSec)
	}
	sn.lastRefill = now
	if sn.tokens < 1 {
		return false
	}
	sn.tokens--
	return true
}

// begin gates one control op: evicted sessions fail fast, rate-quota
// violations evict. Returns the op start time.
func (sn *Session) begin(p *des.Proc) (des.Time, error) {
	if sn.closed {
		return 0, fmt.Errorf("serve: session %s is closed", sn.user)
	}
	if sn.evicted {
		return 0, fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	if !sn.takeToken(p.Now()) {
		sn.sv.evict(p, sn, fmt.Sprintf("control-rate quota exceeded (%.3g ops/s)", sn.quota.MaxCtrlPerSec))
		return 0, fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	sn.renewLease(p.Now())
	return p.Now(), nil
}

// finish closes out one control op: the latency is sampled, a control
// fault (the op error) evicts, and resource quotas are checked.
func (sn *Session) finish(p *des.Proc, t0 des.Time, opErr error) error {
	sn.samples = append(sn.samples, p.Now()-t0)
	if opErr != nil {
		sn.sv.evict(p, sn, "control fault: "+opErr.Error())
		return opErr
	}
	if sn.quota.MaxProbes > 0 && sn.ss.ProbeCount() > sn.quota.MaxProbes {
		sn.sv.evict(p, sn, fmt.Sprintf("probe quota exceeded (%d > %d)", sn.ss.ProbeCount(), sn.quota.MaxProbes))
		return fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	if sn.quota.MaxTraceBytes > 0 && sn.TraceBytes() > sn.quota.MaxTraceBytes {
		sn.sv.evict(p, sn, fmt.Sprintf("trace quota exceeded (%d > %d bytes)", sn.TraceBytes(), sn.quota.MaxTraceBytes))
		return fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	return nil
}

// Insert instruments the named functions (entry/exit probes) under the
// session's quotas.
func (sn *Session) Insert(p *des.Proc, funcs ...string) error {
	t0, err := sn.begin(p)
	if err != nil {
		return err
	}
	return sn.finish(p, t0, sn.ss.Insert(p, funcs...))
}

// Remove removes the session's instrumentation from the named functions.
func (sn *Session) Remove(p *des.Proc, funcs ...string) error {
	t0, err := sn.begin(p)
	if err != nil {
		return err
	}
	return sn.finish(p, t0, sn.ss.Remove(p, funcs...))
}

// Instrumented lists the functions this session currently instruments.
func (sn *Session) Instrumented() []string { return sn.ss.Instrumented() }

// Close detaches the session normally, leaving active instrumentation in
// place (quit semantics) and releasing the admission slot. Idempotent; a
// no-op for evicted sessions (eviction already released everything).
func (sn *Session) Close(p *des.Proc) {
	if sn.closed || sn.evicted {
		return
	}
	sn.closed = true
	sn.suspended = false
	sn.ss.Quit(p)
	sn.sv.releaseSlot()
	sn.sv.stats.Closed++
}
