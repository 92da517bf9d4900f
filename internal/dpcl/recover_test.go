package dpcl

import (
	"errors"
	"fmt"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/image"
	"dynprof/internal/isa"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// seededFaultRig is faultRig with a caller-chosen scheduler seed.
func seededFaultRig(t *testing.T, n int, seed uint64, plan *fault.Plan) *rig {
	t.Helper()
	s := des.NewScheduler(seed)
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

// probeState fingerprints the observable instrumentation of one target:
// for each point of "hot", whether it is patched, the chain length, and
// how many chained probes are active. Reinstalled probes may live at new
// addresses with new snippet IDs; this state may not differ.
func probeState(pr *proc.Process) string {
	img := pr.Image()
	sym := img.MustLookup("hot")
	return fmt.Sprintf("entry:%v/%d/%d exit:%v/%d/%d",
		img.Patched(sym, image.EntryPoint, 0), img.ChainLen(sym, image.EntryPoint, 0), img.ActiveProbes(sym, image.EntryPoint, 0),
		img.Patched(sym, image.ExitPoint, 0), img.ChainLen(sym, image.ExitPoint, 0), img.ActiveProbes(sym, image.ExitPoint, 0))
}

// TestDaemonCrashReplayReconverges: a daemon crash tears the client's
// probes out of its node's targets; the restart notification must trigger
// a ledger replay that reinstalls them in the desired (active) state, and
// the probes must keep firing afterwards.
func TestDaemonCrashReplayReconverges(t *testing.T) {
	plan := &fault.Plan{DaemonCrashes: []fault.DaemonCrash{{Node: 0, At: 300 * des.Millisecond}}}
	r := seededFaultRig(t, 4, 99, plan) // 4 procs on node 0
	r.idle(2 * des.Second)
	fired := make([]int, 4)
	var restarted, replayed bool
	var lateFires int
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		cl.SetRestartNotify(func(node int) {
			restarted = true
			r.s.Spawn("repair", func(rp *des.Proc) {
				n, err := cl.Reconcile(rp)
				if err != nil {
					t.Errorf("reconcile: %v", err)
				}
				if n > 0 {
					replayed = true
				}
			})
		})
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet {
				rank := pr.Rank()
				return func(ec image.ExecCtx) { fired[rank]++ }
			})
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.Activate(p, probe); err != nil {
			t.Error(err)
			return
		}
		// Ride across the crash, then measure post-recovery firing.
		p.Advance(700 * des.Millisecond)
		before := append([]int(nil), fired...)
		p.Advance(700 * des.Millisecond)
		for rank := range fired {
			lateFires += fired[rank] - before[rank]
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if !restarted {
		t.Fatal("daemon restart never notified the client")
	}
	if !replayed {
		t.Fatal("ledger replay never ran")
	}
	if lateFires == 0 {
		t.Fatal("probes did not fire after crash recovery")
	}
	for _, pr := range r.procs {
		if got, want := probeState(pr), "entry:true/1/1 exit:false/0/0"; got != want {
			t.Errorf("%s probe state after recovery = %q, want %q", pr.Name(), got, want)
		}
	}
	evs := r.sys.Faults().Events()
	var crashes, restarts, replays int
	for _, e := range evs {
		switch e.Kind {
		case fault.KindDaemonCrash:
			crashes++
		case fault.KindDaemonRestart:
			restarts++
		case fault.KindLedgerReplay:
			replays++
		}
	}
	if crashes != 1 || restarts != 1 || replays == 0 {
		t.Fatalf("event log: crashes=%d restarts=%d replays=%d", crashes, restarts, replays)
	}
}

// TestHealthyReplayIsNoOp pins the satellite guarantee: replaying the
// ledger against a perfectly healthy daemon leaves every target image
// byte-identical — install replays dedup on their original idempotency
// tokens, activation replays find the desired state already in place.
func TestHealthyReplayIsNoOp(t *testing.T) {
	// The far-future crash never fires; it only makes the system carry an
	// injector, which replay (and its request dedup) requires.
	plan := &fault.Plan{DaemonCrashes: []fault.DaemonCrash{{Node: 0, At: 3600 * des.Second}}}
	r := seededFaultRig(t, 4, 7, plan)
	r.idle(400 * des.Millisecond)
	snapshot := func(pr *proc.Process) []isa.Word {
		img := pr.Image()
		ws := make([]isa.Word, img.Words())
		for at := range ws {
			ws[at] = img.Word(image.Addr(at))
		}
		return ws
	}
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		if err != nil {
			t.Error(err)
			return
		}
		if err := cl.Activate(p, probe); err != nil {
			t.Error(err)
			return
		}
		before := make(map[*proc.Process][]isa.Word)
		for _, pr := range r.procs {
			before[pr] = snapshot(pr)
		}
		n, err := cl.replayNode(p, 0)
		if err != nil {
			t.Errorf("replay: %v", err)
		}
		if n == 0 {
			t.Error("replay did not cover the installed probe")
		}
		for _, pr := range r.procs {
			after := snapshot(pr)
			b := before[pr]
			if len(after) != len(b) {
				t.Errorf("%s image grew from %d to %d words under healthy replay", pr.Name(), len(b), len(after))
				continue
			}
			for at := range b {
				if after[at] != b[at] {
					t.Errorf("%s word %d changed under healthy replay: %+v -> %+v", pr.Name(), at, b[at], after[at])
					break
				}
			}
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestGiveUpErrorTypedAndRollsBack pins the satellite fix: when the
// retransmit loop exhausts its budget the session layer sees a typed
// *GiveUpError, and any half-staged installs are rolled back so no target
// is left with an orphaned probe.
func TestGiveUpErrorTypedAndRollsBack(t *testing.T) {
	r := seededFaultRig(t, 4, 99, &fault.Plan{CtrlLossProb: 1})
	r.idle(500 * des.Millisecond)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		_, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		if err == nil {
			t.Error("install under total loss must fail")
			return
		}
		var gu *GiveUpError
		if !errors.As(err, &gu) {
			t.Errorf("error %T is not a *GiveUpError", err)
		} else if gu.Kind != "install" || gu.Attempts != retryAttempts {
			t.Errorf("GiveUpError = %+v", gu)
		}
		if len(cl.stale) > 0 {
			t.Error("loss without crashes must not mark nodes stale")
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range r.procs {
		if got, want := probeState(pr), "entry:false/0/0 exit:false/0/0"; got != want {
			t.Errorf("%s probe state after failed install = %q, want %q", pr.Name(), got, want)
		}
	}
}

// TestPartialLossRollback drives the rollback path where some installs
// landed and others gave up: with heavy (not total) loss, every target
// must end un-instrumented after the failed install returns.
func TestPartialLossRollback(t *testing.T) {
	for seed := uint64(1); seed <= 5; seed++ {
		r := seededFaultRig(t, 4, seed, &fault.Plan{CtrlLossProb: 0.72})
		r.idle(2 * des.Second)
		var installErr error
		r.s.Spawn("tool", func(p *des.Proc) {
			cl := r.sys.Connect("u")
			cl.Attach(p, r.procs)
			_, installErr = cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
				func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		})
		if err := r.s.Run(); err != nil {
			t.Fatal(err)
		}
		if installErr == nil {
			continue // this seed's install survived the loss; nothing to roll back
		}
		for _, pr := range r.procs {
			sym := pr.Image().MustLookup("hot")
			if n := pr.Image().ChainLen(sym, image.EntryPoint, 0); n != 0 {
				t.Errorf("seed %d: %s left with chain length %d after rollback", seed, pr.Name(), n)
			}
		}
	}
}

// TestCrashDuringInstallReconverges lands a daemon crash inside the
// install transaction itself: the client's retransmits are fenced by the
// restarted daemon, reconciliation replays the ledger, and the install
// must still complete with exactly one active probe per target.
func TestCrashDuringInstallReconverges(t *testing.T) {
	// Attach costs ~60ms+delay; the install follows immediately and runs
	// ~25ms per target, so a crash at 100ms lands mid-transaction.
	plan := &fault.Plan{DaemonCrashes: []fault.DaemonCrash{{Node: 0, At: 100 * des.Millisecond}}}
	r := seededFaultRig(t, 4, 3, plan)
	r.idle(3 * des.Second)
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet { return func(ec image.ExecCtx) {} })
		if err != nil {
			t.Errorf("install across crash: %v", err)
			return
		}
		if err := cl.Activate(p, probe); err != nil {
			t.Errorf("activate across crash: %v", err)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	for _, pr := range r.procs {
		if got, want := probeState(pr), "entry:true/1/1 exit:false/0/0"; got != want {
			t.Errorf("%s probe state = %q, want %q", pr.Name(), got, want)
		}
	}
}
