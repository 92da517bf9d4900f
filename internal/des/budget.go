package des

import (
	"fmt"
	"sort"
	"strings"
)

// Budget bounds a Scheduler run so that a pathological event stream — a
// Proc rescheduling itself forever, a protocol ping-ponging without
// progress — terminates with a *LivelockError instead of spinning the
// host. A zero field means unlimited; the zero Budget disables the guard
// entirely and costs nothing.
type Budget struct {
	// MaxEvents bounds the number of events Run may execute.
	MaxEvents uint64
	// MaxVirtual bounds the virtual time Run may reach: the run is
	// terminated before executing any event scheduled past this instant.
	MaxVirtual Time
}

// IsZero reports whether the budget imposes no bound.
func (b Budget) IsZero() bool { return b.MaxEvents == 0 && b.MaxVirtual == 0 }

// Option configures a Scheduler at construction time.
type Option func(*Scheduler)

// WithBudget installs a progress guard: Run returns a *LivelockError once
// the budget is exhausted, instead of executing further events.
func WithBudget(b Budget) Option { return func(s *Scheduler) { s.budget = b } }

// ProcLoad is one Proc's share of scheduler activity, used to identify the
// hottest Procs of a terminated run.
type ProcLoad struct {
	// Proc is the Proc's name.
	Proc string
	// Steps is the number of times the scheduler resumed the Proc.
	Steps uint64
}

// LivelockError is returned by Run when the scheduler's Budget is
// exhausted: the simulation was still generating events but the run was
// terminated before completing, which usually indicates a livelocked
// model. All parked Procs have been aborted by the time Run returns it.
type LivelockError struct {
	// Events is the number of events executed before termination.
	Events uint64
	// Virtual is the virtual time the run had reached.
	Virtual Time
	// Hot lists the most frequently resumed Procs, busiest first — the
	// likely participants in the livelock.
	Hot []ProcLoad
}

func (e *LivelockError) Error() string {
	msg := fmt.Sprintf("des: budget exceeded after %d events at virtual time %v (livelock?)",
		e.Events, e.Virtual)
	if len(e.Hot) > 0 {
		parts := make([]string, len(e.Hot))
		for i, h := range e.Hot {
			parts[i] = fmt.Sprintf("%s (%d steps)", h.Proc, h.Steps)
		}
		msg += "; hottest procs: " + strings.Join(parts, ", ")
	}
	return msg
}

// horizon caps a loop's limit at the virtual budget: a loop executes no
// event past MaxVirtual, so MaxVirtual+1 bounds it when that is sooner.
func (b Budget) horizon(limit Time) Time {
	if b.MaxVirtual > 0 && b.MaxVirtual < limit-1 {
		return b.MaxVirtual + 1
	}
	return limit
}

// livelocked terminates an over-budget run of the given schedulers with
// its diagnosis: the events executed across them, the latest clock among
// them and their hottest Procs. It aborts every parked Proc so no
// goroutines leak.
func livelocked(shards ...*Scheduler) *LivelockError {
	err := &LivelockError{Hot: hotProcs(shards...)}
	for _, s := range shards {
		err.Events += s.executed
		err.Virtual = max(err.Virtual, s.now)
	}
	abortAll(shards...)
	return err
}

// hotProcs ranks the Procs of the given schedulers by resume count,
// busiest first (ties by name), and returns at most three entries with
// non-zero activity.
func hotProcs(shards ...*Scheduler) []ProcLoad {
	var loads []ProcLoad
	for _, s := range shards {
		for _, p := range s.procs {
			if p.steps > 0 {
				loads = append(loads, ProcLoad{Proc: p.name, Steps: p.steps})
			}
		}
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Steps != loads[j].Steps {
			return loads[i].Steps > loads[j].Steps
		}
		return loads[i].Proc < loads[j].Proc
	})
	if len(loads) > 3 {
		loads = loads[:3]
	}
	return loads
}
