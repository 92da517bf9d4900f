// Package fault defines the deterministic fault-injection layer of the
// simulated cluster: a declarative Plan of what goes wrong (per-node clock
// slowdown, transient node stalls, control-message delay and loss on the
// DPCL daemon path, rank crashes and daemon crashes at virtual times) and
// an Injector that turns the plan into seed-driven decisions and a
// structured event log at run time.
//
// The package holds only data and decision logic; the machine, proc, mpi,
// dpcl and vt layers consult it at their own fault points. A zero Plan is
// free: no Injector is created, no RNG values are drawn, and every layer
// follows exactly the fault-free code path, so fault support never
// perturbs fault-free runs.
package fault

import (
	"fmt"
	"sort"
	"strings"

	"dynprof/internal/des"
)

// Slowdown scales one node's processor clock: every cycle on the node
// takes Factor times as long (thermal throttling, a failing DIMM being
// scrubbed, a co-scheduled daemon). Factor must be >= 1.
type Slowdown struct {
	Node   int
	Factor float64
}

// Stall freezes every CPU of one node for a window of virtual time
// (an OS hiccup, a paging storm). Threads computing on the node during
// [At, At+Duration] make no progress; communication already in flight is
// unaffected.
type Stall struct {
	Node     int
	At       des.Time
	Duration des.Time
}

// End reports the first instant after the stall.
func (st Stall) End() des.Time { return st.At + st.Duration }

// Crash kills one MPI rank at a virtual time: its process disappears and
// never re-enters communication. Surviving ranks must detect the death
// via timeout and degrade instead of hanging.
type Crash struct {
	Rank int
	At   des.Time
}

// DefaultDetectTimeout is how long survivors wait for a missing collective
// party before concluding it is dead, when the plan does not override it.
const DefaultDetectTimeout = 250 * des.Millisecond

// DefaultDaemonRestart is how long a crashed communication daemon stays
// down before its super daemon respawns it, when the crash does not
// override it. It is deliberately shorter than the client retry budget of
// any acknowledged request class, so a single crash delays control
// operations instead of failing them.
const DefaultDaemonRestart = 40 * des.Millisecond

// DaemonCrash kills every communication daemon on one node at a virtual
// time. The node's super daemon respawns each crashed daemon (with a new
// incarnation number) after Restart; clients detect the restart, replay
// their probe ledgers and reconverge. Unlike Crash, the target application
// is untouched — only the control plane fails.
type DaemonCrash struct {
	Node int
	At   des.Time
	// Restart is the downtime before the respawn (0 = DefaultDaemonRestart).
	Restart des.Time
}

// RestartDelay resolves the crash's downtime.
func (c DaemonCrash) RestartDelay() des.Time {
	if c.Restart == 0 {
		return DefaultDaemonRestart
	}
	return c.Restart
}

// Plan declares every fault injected into one simulated run. The zero
// value is the fault-free ideal machine; IsZero reports it and every
// consumer bypasses the fault path entirely for it.
//
// Plans are immutable once attached to a machine configuration: they are
// shared across concurrently executing experiment cells.
type Plan struct {
	// Slowdowns scales named nodes' clocks (Factor >= 1).
	Slowdowns []Slowdown
	// Stalls freezes nodes for windows of virtual time.
	Stalls []Stall
	// Crashes kills MPI ranks at virtual times.
	Crashes []Crash
	// DaemonCrashes kills per-node communication daemons at virtual times;
	// each is respawned after its restart delay with a new incarnation.
	DaemonCrashes []DaemonCrash
	// CtrlLossProb is the probability, per DPCL control message (request
	// or acknowledgement), that the message is silently lost. Lost
	// requests are retried by the client with exponential backoff.
	CtrlLossProb float64
	// CtrlDelayFactor scales daemon control-message latency (>= 1;
	// 0 means 1: no extra delay).
	CtrlDelayFactor float64
	// DetectTimeout overrides how long survivors wait before degrading a
	// collective around a dead rank (0 = DefaultDetectTimeout).
	DetectTimeout des.Time
}

// IsZero reports whether the plan injects nothing. A nil plan is zero.
func (pl *Plan) IsZero() bool {
	if pl == nil {
		return true
	}
	return len(pl.Slowdowns) == 0 && len(pl.Stalls) == 0 && len(pl.Crashes) == 0 &&
		len(pl.DaemonCrashes) == 0 && pl.CtrlLossProb == 0 && pl.CtrlDelayFactor == 0 &&
		pl.DetectTimeout == 0
}

// MovesTimeOnly reports whether the plan can only move an application's
// operations in time — slowed clocks, stalled nodes, delayed control
// messages — and never change which operations it performs. A zero plan
// moves nothing. Rank crashes change what survivors receive; the other
// classes are excluded conservatively.
func (pl *Plan) MovesTimeOnly() bool {
	if pl.IsZero() {
		return true
	}
	return len(pl.Crashes) == 0 && len(pl.DaemonCrashes) == 0 && pl.CtrlLossProb == 0 &&
		pl.DetectTimeout == 0
}

// Validate rejects plans that would corrupt virtual time or probability
// draws: slowdown factors below 1, stalls with negative windows, loss
// probabilities outside [0, 1].
func (pl *Plan) Validate() error {
	if pl == nil {
		return nil
	}
	for _, s := range pl.Slowdowns {
		if s.Factor < 1 {
			return fmt.Errorf("fault: slowdown factor %.3f on node %d would run time backwards (want >= 1)", s.Factor, s.Node)
		}
	}
	for _, st := range pl.Stalls {
		if st.At < 0 || st.Duration < 0 {
			return fmt.Errorf("fault: stall on node %d has negative window (at %v for %v)", st.Node, st.At, st.Duration)
		}
	}
	for _, c := range pl.Crashes {
		if c.Rank < 0 || c.At < 0 {
			return fmt.Errorf("fault: crash of rank %d at %v is not schedulable", c.Rank, c.At)
		}
	}
	for _, c := range pl.DaemonCrashes {
		if c.Node < 0 || c.At < 0 || c.Restart < 0 {
			return fmt.Errorf("fault: daemon crash on node %d at %v (restart %v) is not schedulable", c.Node, c.At, c.Restart)
		}
	}
	if pl.CtrlLossProb < 0 || pl.CtrlLossProb > 1 {
		return fmt.Errorf("fault: control-message loss probability %.3f outside [0,1]", pl.CtrlLossProb)
	}
	if pl.CtrlDelayFactor < 0 {
		return fmt.Errorf("fault: control-message delay factor %.3f is negative", pl.CtrlDelayFactor)
	}
	if pl.DetectTimeout < 0 {
		return fmt.Errorf("fault: detect timeout %v is negative", pl.DetectTimeout)
	}
	return nil
}

// SlowdownOn reports the clock scale of a node: 1.0 when unaffected. When
// several slowdowns name the same node their factors compound.
func (pl *Plan) SlowdownOn(node int) float64 {
	f := 1.0
	if pl == nil {
		return f
	}
	for _, s := range pl.Slowdowns {
		if s.Node == node {
			f *= s.Factor
		}
	}
	return f
}

// StallsOn returns the node's stall windows sorted by start time.
func (pl *Plan) StallsOn(node int) []Stall {
	if pl == nil {
		return nil
	}
	var out []Stall
	for _, st := range pl.Stalls {
		if st.Node == node && st.Duration > 0 {
			out = append(out, st)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// CrashesOn returns the node's daemon crashes sorted by time.
func (pl *Plan) CrashesOn(node int) []DaemonCrash {
	if pl == nil {
		return nil
	}
	var out []DaemonCrash
	for _, c := range pl.DaemonCrashes {
		if c.Node == node {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].At < out[j].At })
	return out
}

// HasDaemonCrashes reports whether any daemon crash is planned.
func (pl *Plan) HasDaemonCrashes() bool { return pl != nil && len(pl.DaemonCrashes) > 0 }

// DelayFactor resolves the effective control-delay scale (0 means 1).
func (pl *Plan) DelayFactor() float64 {
	if pl == nil || pl.CtrlDelayFactor == 0 {
		return 1
	}
	return pl.CtrlDelayFactor
}

// Timeout resolves the dead-rank detection timeout.
func (pl *Plan) Timeout() des.Time {
	if pl == nil || pl.DetectTimeout == 0 {
		return DefaultDetectTimeout
	}
	return pl.DetectTimeout
}

// Key canonicalises the plan for experiment memoization: two plans with
// equal keys inject identical fault schedules into a deterministic run.
// The zero plan's key is the empty string, so fault-free spec keys are
// byte-identical to what they were before the fault layer existed.
func (pl *Plan) Key() string {
	if pl.IsZero() {
		return ""
	}
	var b strings.Builder
	b.WriteString("faults{")
	slow := append([]Slowdown(nil), pl.Slowdowns...)
	sort.Slice(slow, func(i, j int) bool {
		if slow[i].Node != slow[j].Node {
			return slow[i].Node < slow[j].Node
		}
		return slow[i].Factor < slow[j].Factor
	})
	for _, s := range slow {
		fmt.Fprintf(&b, "slow:%d*%g;", s.Node, s.Factor)
	}
	stalls := append([]Stall(nil), pl.Stalls...)
	sort.Slice(stalls, func(i, j int) bool {
		if stalls[i].Node != stalls[j].Node {
			return stalls[i].Node < stalls[j].Node
		}
		return stalls[i].At < stalls[j].At
	})
	for _, st := range stalls {
		fmt.Fprintf(&b, "stall:%d@%d+%d;", st.Node, int64(st.At), int64(st.Duration))
	}
	crashes := append([]Crash(nil), pl.Crashes...)
	sort.Slice(crashes, func(i, j int) bool {
		if crashes[i].Rank != crashes[j].Rank {
			return crashes[i].Rank < crashes[j].Rank
		}
		return crashes[i].At < crashes[j].At
	})
	for _, c := range crashes {
		fmt.Fprintf(&b, "crash:%d@%d;", c.Rank, int64(c.At))
	}
	dcrash := append([]DaemonCrash(nil), pl.DaemonCrashes...)
	sort.Slice(dcrash, func(i, j int) bool {
		if dcrash[i].Node != dcrash[j].Node {
			return dcrash[i].Node < dcrash[j].Node
		}
		return dcrash[i].At < dcrash[j].At
	})
	for _, c := range dcrash {
		fmt.Fprintf(&b, "dcrash:%d@%d+%d;", c.Node, int64(c.At), int64(c.RestartDelay()))
	}
	if pl.CtrlLossProb != 0 {
		fmt.Fprintf(&b, "loss:%g;", pl.CtrlLossProb)
	}
	if pl.CtrlDelayFactor != 0 {
		fmt.Fprintf(&b, "delay:%g;", pl.CtrlDelayFactor)
	}
	if pl.DetectTimeout != 0 {
		fmt.Fprintf(&b, "detect:%d;", int64(pl.DetectTimeout))
	}
	b.WriteString("}")
	return b.String()
}
