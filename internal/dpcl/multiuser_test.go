package dpcl

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/proc"
)

// TestOneCommDaemonPerUser checks Figure 5's structure: "the super daemon
// creates one communication daemon for each user that connects to an
// application on the node".
func TestOneCommDaemonPerUser(t *testing.T) {
	r := newRig(t, 2) // both targets on node 0
	r.idle(des.Millisecond)
	r.s.Spawn("tools", func(p *des.Proc) {
		alice := r.sys.Connect("alice")
		alice.Attach(p, r.procs)
		bob := r.sys.Connect("bob")
		bob.Attach(p, r.procs)
		sd := r.sys.super(0)
		if len(sd.comms) != 2 {
			t.Errorf("super daemon runs %d comm daemons, want one per user", len(sd.comms))
		}
		if sd.comms["alice"] == sd.comms["bob"] {
			t.Error("users share a communication daemon")
		}
		// A second client for the same user reuses the daemon.
		alice2 := r.sys.Connect("alice")
		alice2.Attach(p, r.procs)
		if len(sd.comms) != 2 {
			t.Errorf("re-connect grew daemon count to %d", len(sd.comms))
		}
		alice.Disconnect()
		bob.Disconnect()
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestDisconnectFreesCommDaemon checks the teardown half of Figure 5's
// lifecycle, which eviction in the session server relies on: Disconnect
// removes the per-user comm daemon from the super daemon, is idempotent,
// and a stale client cannot kill a replacement daemon created by a later
// client of the same user.
func TestDisconnectFreesCommDaemon(t *testing.T) {
	r := newRig(t, 2) // both targets on node 0
	r.idle(des.Millisecond)
	r.s.Spawn("tools", func(p *des.Proc) {
		sd := r.sys.super(0)
		alice := r.sys.Connect("alice")
		alice.Attach(p, r.procs)
		bob := r.sys.Connect("bob")
		bob.Attach(p, r.procs)
		if got := r.sys.CommDaemons(); got != 2 {
			t.Fatalf("CommDaemons() = %d after two attaches, want 2", got)
		}

		alice.Disconnect()
		if len(sd.comms) != 1 {
			t.Errorf("comms = %d after alice disconnects, want 1 (bob's)", len(sd.comms))
		}
		if _, ok := sd.comms["alice"]; ok {
			t.Error("alice's comm daemon still registered after Disconnect")
		}
		alice.Disconnect() // idempotent: no panic, no effect on bob
		if len(sd.comms) != 1 {
			t.Errorf("comms = %d after double disconnect, want 1", len(sd.comms))
		}

		// Ownership: alice1 and alice2 share one daemon. alice1's
		// disconnect frees it; a third client then creates a replacement,
		// and the stale alice2 handle must not tear that replacement down.
		alice1 := r.sys.Connect("alice")
		alice1.Attach(p, r.procs)
		alice2 := r.sys.Connect("alice")
		alice2.Attach(p, r.procs)
		if len(sd.comms) != 2 {
			t.Fatalf("comms = %d with alice back and bob, want 2", len(sd.comms))
		}
		alice1.Disconnect()
		alice3 := r.sys.Connect("alice")
		alice3.Attach(p, r.procs)
		replacement := sd.comms["alice"]
		alice2.Disconnect() // stale: its daemon is gone, replacement is not its
		if sd.comms["alice"] != replacement {
			t.Error("stale client's Disconnect killed the replacement daemon")
		}

		alice3.Disconnect()
		bob.Disconnect()
		if got := r.sys.CommDaemons(); got != 0 {
			t.Errorf("CommDaemons() = %d after all disconnects, want 0", got)
		}
	})
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestTwoUsersInstrumentIndependently: two instrumenters chain probes at
// the same point; each removes its own without disturbing the other's.
func TestTwoUsersInstrumentIndependently(t *testing.T) {
	r := newRig(t, 1)
	fired := map[string]int{}
	var pa, pb *Probe
	r.s.Spawn("alice", func(p *des.Proc) {
		cl := r.sys.Connect("alice")
		cl.Attach(p, r.procs)
		var err error
		pa, err = cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet {
				return func(ec image.ExecCtx) { fired["alice"]++ }
			})
		if err != nil {
			t.Error(err)
			return
		}
		cl.Activate(p, pa)
		p.Advance(400 * des.Millisecond)
		if err := cl.Remove(p, pa); err != nil {
			t.Error(err)
		}
		cl.Disconnect()
	})
	r.s.Spawn("bob", func(p *des.Proc) {
		cl := r.sys.Connect("bob")
		cl.Attach(p, r.procs)
		var err error
		pb, err = cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0,
			func(pr *proc.Process) image.Snippet {
				return func(ec image.ExecCtx) { fired["bob"]++ }
			})
		if err != nil {
			t.Error(err)
			return
		}
		cl.Activate(p, pb)
		p.Advance(900 * des.Millisecond)
		if err := cl.Remove(p, pb); err != nil {
			t.Error(err)
		}
		cl.Disconnect()
	})
	r.idle(1200 * des.Millisecond)
	if err := r.s.Run(); err != nil {
		t.Fatal(err)
	}
	if fired["alice"] == 0 || fired["bob"] == 0 {
		t.Fatalf("fired = %v; both users' probes must run", fired)
	}
	// Bob's probe outlived Alice's removal, so it fires more.
	if fired["bob"] <= fired["alice"] {
		t.Fatalf("fired = %v; bob's longer window should record more", fired)
	}
	for _, pr := range r.procs {
		if pr.Image().HeapWords() != 0 {
			t.Fatalf("heap words leaked after both removals: %d", pr.Image().HeapWords())
		}
	}
}
