package serve_test

import (
	"errors"
	"slices"
	"testing"

	"dynprof/internal/adapt"
	"dynprof/internal/des"
	"dynprof/internal/serve"
)

// TestAdaptiveSessionSheds: a session with an adaptive policy over all
// four hot functions converges under its budget by shedding probes, while
// keeping at least one — the serve-side mirror of the exp convergence
// test, driven through the quota-gated Insert/Remove path. Every step's
// decision and measured overhead is pinned exactly.
func TestAdaptiveSessionSheds(t *testing.T) {
	s, sv, done := newTestServer(t, 31, serve.Config{}, 1)
	// The resident job's removable probe cost is a few cycles in hundreds
	// of millions, so the shedding regime needs a micro-scale budget.
	const budget = 1e-5
	// The exact decision sequence and measured overheads: the baseline
	// step, one shed of the two costliest probes, then holding inside the
	// deadband.
	wantSteps := []struct {
		shed     []string
		overhead float64
	}{
		{nil, 0},
		{[]string{"smg_relax", "smg_exchange"}, 1.495e-05},
		{nil, 7.640774456107252e-06},
		{nil, 9.533333333333334e-06},
		{nil, 7.8e-06},
		{nil, 9.533333333333334e-06},
		{nil, 7.8e-06},
	}
	var sn *serve.Session
	var before int
	s.Spawn("tuner", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		var err error
		sn, err = sv.Open(p, "tuner", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sn.Insert(p, sv.Job("smg").Hot()...); err != nil {
			t.Errorf("insert: %v", err)
			return
		}
		before = len(sn.Instrumented())
		if err := sn.EnableAdaptive(adapt.Config{Budget: budget}); err != nil {
			t.Errorf("enable: %v", err)
			return
		}
		if err := sn.EnableAdaptive(adapt.Config{Budget: budget}); err == nil {
			t.Error("double EnableAdaptive succeeded")
		}
		for i, want := range wantSteps {
			d, err := sn.AdaptStep(p)
			if err != nil {
				t.Errorf("step %d: %v", i, err)
				return
			}
			if !slices.Equal(d.Deactivate, want.shed) || len(d.Reactivate) != 0 || sn.AdaptOverhead() != want.overhead {
				t.Errorf("step %d: decision %+v at overhead %v, want shed %v at %v",
					i, d, sn.AdaptOverhead(), want.shed, want.overhead)
			}
			p.Advance(2 * des.Second)
		}
		sn.Close(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	after := len(sn.Instrumented())
	if after >= before {
		t.Errorf("controller shed nothing: %d probes before, %d after", before, after)
	}
	if after == 0 {
		t.Errorf("controller shed everything; expected partial retention under budget %g", budget)
	}
	if ov := sn.AdaptOverhead(); ov > budget {
		t.Errorf("final measured overhead %.3g above budget %g", ov, budget)
	}
}

// TestAdaptiveUnderQuota: the controller's own edits consume the session's
// control-rate tokens — an adaptive policy on a starved quota evicts
// itself instead of bypassing tenant limits.
func TestAdaptiveUnderQuota(t *testing.T) {
	s, sv, done := newTestServer(t, 37, serve.Config{
		DefaultQuota: serve.Quota{MaxCtrlPerSec: 0.01, CtrlBurst: 1},
	}, 1)
	var sn *serve.Session
	s.Spawn("greedy", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		var err error
		sn, err = sv.Open(p, "greedy", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sn.Insert(p, sv.Job("smg").Hot()...); err != nil { // burst token
			t.Errorf("insert: %v", err)
			return
		}
		// A budget no real epoch can meet forces a shed every step.
		if err := sn.EnableAdaptive(adapt.Config{Budget: 1e-12}); err != nil {
			t.Errorf("enable: %v", err)
			return
		}
		if _, err := sn.AdaptStep(p); err != nil { // baseline: no control op
			t.Errorf("baseline step: %v", err)
			return
		}
		p.Advance(2 * des.Second)
		// ~0.02 tokens refilled: the shed's Remove must trip the quota.
		if _, err := sn.AdaptStep(p); !errors.Is(err, serve.ErrEvicted) {
			t.Errorf("quota-starved step = %v, want ErrEvicted", err)
		}
		if _, err := sn.AdaptStep(p); !errors.Is(err, serve.ErrEvicted) {
			t.Errorf("step after eviction = %v, want ErrEvicted", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev, reason := sn.Evicted(); !ev || reason == "" {
		t.Errorf("eviction = %v %q, want rate eviction", ev, reason)
	}
}
