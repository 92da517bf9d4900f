package dpcl

import (
	"fmt"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// faultRig is a rig on a machine carrying a fault plan.
func faultRig(t *testing.T, n int, plan *fault.Plan) *rig {
	t.Helper()
	s := des.NewScheduler(99)
	mach := machine.MustNew("ibm-power3").WithFaultPlan(plan)
	place, err := machine.Pack(mach, n)
	if err != nil {
		t.Fatal(err)
	}
	b := image.NewBuilder("target")
	if _, err := b.AddFunc(image.FuncSpec{Name: "hot", BodyWords: 16, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	tmpl := b.Build()
	r := &rig{s: s, mach: mach, sys: NewSystem(s, mach)}
	for i := 0; i < n; i++ {
		pr := proc.NewProcess(s, mach, fmt.Sprintf("tgt%d", i), i, place.NodeOf(i), tmpl.Clone())
		r.procs = append(r.procs, pr)
	}
	return r
}

// TestTotalLossTimesOutBounded: with 100% control-message loss, an
// install transaction must give up within bounded virtual time — retry
// with backoff, then a timeout error — rather than hanging or spinning.
func TestTotalLossTimesOutBounded(t *testing.T) {
	r := faultRig(t, 2, &fault.Plan{CtrlLossProb: 1})
	r.idle(des.Second)
	var installErr error
	var took des.Time
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		t0 := p.Now()
		_, installErr = cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0, "count",
			func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		took = p.Now() - t0
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if installErr == nil {
		t.Fatal("install under total loss must fail")
	}
	if !strings.Contains(installErr.Error(), "timed out") {
		t.Errorf("error %q does not report a timeout", installErr)
	}
	// The retry budget bounds the transaction: per target, sum of
	// rto<<attempt for 6 attempts with rto ~ (4*220us + 25ms) ~ 26ms is
	// about 1.6s; two targets stay well under a minute of virtual time.
	if took <= 0 || took > 60*des.Second {
		t.Errorf("timed-out transaction took %v, want bounded positive time", took)
	}
	var retries, drops, timeouts int
	for _, ev := range r.sys.Faults().Events() {
		switch ev.Kind {
		case fault.KindCtrlRetry:
			retries++
		case fault.KindCtrlDrop:
			drops++
		case fault.KindCtrlTimeout:
			timeouts++
		}
	}
	if retries != 2*(retryAttempts-1) {
		t.Errorf("retries = %d, want %d", retries, 2*(retryAttempts-1))
	}
	if timeouts != 2 || drops == 0 {
		t.Errorf("timeouts = %d drops = %d, want 2 timeouts and nonzero drops", timeouts, drops)
	}
}

// TestPartialLossRecovers: with 25% loss, retransmission gets the probe
// installed and activated anyway.
func TestPartialLossRecovers(t *testing.T) {
	r := faultRig(t, 4, &fault.Plan{CtrlLossProb: 0.25})
	fired := make([]int, 4)
	r.idle(8 * des.Second)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0, "count",
			func(pr *proc.Process) image.Snippet {
				rank := pr.Rank()
				return func(ec image.ExecCtx) { fired[rank]++ }
			})
		if err != nil {
			t.Errorf("install under partial loss failed: %v", err)
			return
		}
		if err := cl.Activate(p, probe); err != nil {
			t.Errorf("activate under partial loss failed: %v", err)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	for rank, n := range fired {
		if n == 0 {
			t.Errorf("rank %d probe never fired", rank)
		}
	}
}

// TestDelayFactorStretchesControl: scaling control latency 8x makes the
// same acknowledged transaction take measurably longer.
func TestDelayFactorStretchesControl(t *testing.T) {
	run := func(plan *fault.Plan) des.Time {
		r := faultRig(t, 2, plan)
		r.idle(des.Second)
		var took des.Time
		r.s.Spawn("tool", func(p *des.Proc) {
			cl := r.sys.Connect("u")
			cl.Attach(p, r.procs)
			t0 := p.Now()
			probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0, "n",
				func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
			if err != nil {
				t.Fatal(err)
			}
			if err := cl.Activate(p, probe); err != nil {
				t.Fatal(err)
			}
			took = p.Now() - t0
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		return took
	}
	slow := run(&fault.Plan{CtrlDelayFactor: 8})
	fast := run(&fault.Plan{CtrlDelayFactor: 1.000001}) // non-zero plan, same seed path
	if slow <= fast {
		t.Errorf("8x control delay took %v, baseline %v; want slower", slow, fast)
	}
}

// TestFaultFreeSystemHasNoInjector: a zero plan leaves the system exactly
// on the pre-fault path (nil injector, no event log).
func TestFaultFreeSystemHasNoInjector(t *testing.T) {
	r := newRig(t, 2)
	if r.sys.Faults() != nil {
		t.Error("fault-free system must have a nil injector")
	}
}

// TestLateAcksNeverReachLaterTransactions pins the never-recycle rule for
// faulted systems. The targets reach a safe point only every 20ms, so each
// blocking suspend outlives the client's retransmit timer: the daemon
// executes the suspend once, then re-acks every retransmit, and those
// duplicate acks land after the transaction has returned. The last target
// takes 120ms, past the whole retry budget, so its suspends give up
// before their acks arrive. Were the requests recycled, a later
// transaction would draw one whose mailbox still holds such an ack and
// return before its own daemon had acted; so every transaction that
// succeeds must find its action applied on every target.
func TestLateAcksNeverReachLaterTransactions(t *testing.T) {
	r := faultRig(t, 4, &fault.Plan{CtrlLossProb: 0.1})
	const rounds = 12
	for i, pr := range r.procs {
		pr := pr
		slice := r.mach.TimeToCycles(20 * des.Millisecond)
		if i == len(r.procs)-1 {
			slice = r.mach.TimeToCycles(120 * des.Millisecond)
		}
		pr.Start(func(th *proc.Thread) {
			hot := pr.Image().MustLookup("hot")
			for th.Now() < rounds*des.Second {
				th.Call(hot, func() { th.Work(slice) })
			}
		})
	}
	var ok, failed int
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0, "n",
			func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		if err != nil {
			t.Error(err)
			return
		}
		// check counts a transaction's outcome; a success must have
		// applied the action on every target.
		check := func(op string, err error, applied func(pr *proc.Process) bool) {
			if err != nil {
				failed++
				return
			}
			ok++
			for _, pr := range r.procs {
				if h := probe.hands[pr]; !applied(pr) {
					t.Errorf("%v: %s returned before %s's daemon acted (handle active %v)",
						p.Now(), op, pr.Name(), h != nil && h.Active())
				}
			}
		}
		for i := 0; i < rounds; i++ {
			check("suspend", cl.Suspend(p, r.procs, true), (*proc.Process).Suspended)
			check("activate", cl.Activate(p, probe), func(pr *proc.Process) bool { return probe.hands[pr].Active() })
			check("deactivate", cl.Deactivate(p, probe), func(pr *proc.Process) bool { return !probe.hands[pr].Active() })
			cl.Resume(p, r.procs)
			p.Advance(des.Second - p.Now()%des.Second)
		}
		cl.Disconnect()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	var retries int
	for _, ev := range r.sys.Faults().Events() {
		if ev.Kind == fault.KindCtrlRetry {
			retries++
		}
	}
	t.Logf("%d transactions succeeded, %d failed, %d retransmits", ok, failed, retries)
	if retries < rounds {
		t.Errorf("only %d retransmits: the plan no longer produces late duplicate acks", retries)
	}
	if ok == 0 || failed == 0 {
		t.Errorf("%d transactions succeeded and %d gave up, want some of each", ok, failed)
	}
	if n := len(r.sys.free); n != 0 {
		t.Errorf("faulted system recycled %d requests", n)
	}
}
