package serve

import (
	"fmt"

	"dynprof/internal/adapt"
	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// adaptive is a session's attached adaptive policy: the pure controller
// plus the epoch meter over the resident job.
type adaptive struct {
	ctl   *adapt.Controller
	meter *adapt.Meter

	// watched is every function the controller has ever managed for this
	// session (still measured after removal so re-insertion stays
	// cost-informed); order fixes the deterministic epoch probe order.
	watched map[string]bool
	order   []string
}

// EnableAdaptive attaches an adaptive deactivation policy to the session:
// each subsequent AdaptStep measures the removable cost of the session's
// probes against the resident job's useful cycles and sheds (or
// re-inserts) probes to hold cfg.Budget. The controller's edits go through
// the session's own quota-gated Insert/Remove, so an adaptive policy is
// bounded by the same control-rate, probe and trace quotas as a
// hand-driven tenant — a runaway controller evicts itself.
func (sn *Session) EnableAdaptive(cfg adapt.Config) error {
	if sn.closed {
		return fmt.Errorf("serve: session %s is closed", sn.user)
	}
	if sn.evicted {
		return fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	if sn.adaptive != nil {
		return fmt.Errorf("serve: session %s already has an adaptive policy", sn.user)
	}
	if cfg.Budget <= 0 {
		return fmt.Errorf("serve: adaptive budget must be positive, got %g", cfg.Budget)
	}
	sn.adaptive = &adaptive{
		ctl:     adapt.NewController(cfg),
		meter:   adapt.NewMeter(sn.jb.Guide()),
		watched: make(map[string]bool),
	}
	return nil
}

// Adaptive reports whether an adaptive policy is attached.
func (sn *Session) Adaptive() bool { return sn.adaptive != nil }

// AdaptOverhead reports the controller's last measured removable-overhead
// fraction (zero before the first measured epoch or without a policy).
func (sn *Session) AdaptOverhead() float64 {
	if sn.adaptive == nil {
		return 0
	}
	return sn.adaptive.ctl.LastOverhead()
}

// AdaptStep runs one controller epoch: it diffs per-probe cost counters
// since the previous step (the first step only captures a baseline), steps
// the controller, and applies the decision through the session's
// quota-gated Insert/Remove. The returned Decision reports what the
// controller chose even when applying it failed (e.g. eviction mid-apply).
func (sn *Session) AdaptStep(p *des.Proc) (adapt.Decision, error) {
	var none adapt.Decision
	ad := sn.adaptive
	if ad == nil {
		return none, fmt.Errorf("serve: session %s has no adaptive policy", sn.user)
	}
	if sn.closed {
		return none, fmt.Errorf("serve: session %s is closed", sn.user)
	}
	if sn.evicted {
		return none, fmt.Errorf("%w (%s)", ErrEvicted, sn.evictReason)
	}
	active := make(map[string]bool)
	for _, f := range sn.ss.Instrumented() {
		active[f] = true
		if !ad.watched[f] {
			ad.watched[f] = true
			ad.order = append(ad.order, f)
		}
	}
	e, ok := ad.measure(active)
	if !ok {
		return none, nil
	}
	d := ad.ctl.Step(e)
	if len(d.Deactivate) > 0 {
		if err := sn.Remove(p, d.Deactivate...); err != nil {
			return d, err
		}
	}
	if len(d.Reactivate) > 0 {
		if err := sn.Insert(p, d.Reactivate...); err != nil {
			return d, err
		}
	}
	return d, nil
}

// measure ends an epoch and aggregates the watched functions' deltas
// across ranks into one Epoch, in watched order; active tells the
// controller which probes this session currently holds. It reports false
// for the first epoch, which only takes the baseline.
func (ad *adaptive) measure(active map[string]bool) (adapt.Epoch, bool) {
	agg := make(map[string]adapt.Probe, len(ad.order))
	total, ok := ad.meter.Next(func(_ int, d vt.ProbeCost) {
		if ad.watched[d.Name] {
			pb := agg[d.Name]
			pb.Hits += d.Hits
			pb.Cycles += d.RemovableCycles()
			agg[d.Name] = pb
		}
	})
	if !ok {
		return adapt.Epoch{}, false
	}
	e := adapt.Epoch{Total: total, Probes: make([]adapt.Probe, 0, len(ad.order))}
	for _, name := range ad.order {
		pb := agg[name]
		pb.Name, pb.Active = name, active[name]
		e.Probes = append(e.Probes, pb)
	}
	return e, true
}
