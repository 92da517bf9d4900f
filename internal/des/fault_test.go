package des

import (
	"testing"
	"time"
)

// TestRecvTimeoutExpires: a receiver with nothing inbound resumes after
// exactly the timeout with ok=false.
func TestRecvTimeoutExpires(t *testing.T) {
	s := NewScheduler(1)
	m := NewMailbox(s, "box")
	var at Time
	var ok bool
	s.Spawn("rx", func(p *Proc) {
		_, ok = p.RecvTimeout(m, 5*Millisecond)
		at = p.Now()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("empty mailbox must time out")
	}
	if at != 5*Millisecond {
		t.Errorf("resumed at %v, want 5ms", at)
	}
}

// TestRecvTimeoutDelivery: a message inside the window is received
// normally; queued messages are returned immediately.
func TestRecvTimeoutDelivery(t *testing.T) {
	s := NewScheduler(1)
	m := NewMailbox(s, "box")
	m.PutAfter(2*Millisecond, "late")
	var got any
	var ok bool
	var at Time
	s.Spawn("rx", func(p *Proc) {
		got, ok = p.RecvTimeout(m, 5*Millisecond)
		at = p.Now()
		// Mailbox now empty again; an already-queued value returns at once.
		m.Put("queued")
		v2, ok2 := p.RecvTimeout(m, Millisecond)
		if !ok2 || v2 != "queued" {
			t.Errorf("queued recv = %v/%v", v2, ok2)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !ok || got != "late" || at != 2*Millisecond {
		t.Errorf("got %v/%v at %v, want late/true at 2ms", got, ok, at)
	}
}

// TestRecvTimeoutThenLatePut: after a timeout the expired waiter is gone;
// a later Put queues the value instead of feeding a stale waiter.
func TestRecvTimeoutThenLatePut(t *testing.T) {
	s := NewScheduler(1)
	m := NewMailbox(s, "box")
	m.PutAfter(10*Millisecond, "late")
	s.Spawn("rx", func(p *Proc) {
		if _, ok := p.RecvTimeout(m, Millisecond); ok {
			t.Error("recv should have timed out")
		}
		p.Advance(20 * Millisecond)
		if m.Len() != 1 {
			t.Errorf("late put not queued: len=%d", m.Len())
		}
		if v := p.Recv(m); v != "late" {
			t.Errorf("recv after timeout = %v", v)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKill: a killed Proc stops for good — it no longer advances, and the
// scheduler neither deadlocks nor leaks its pending wake-ups.
func TestKill(t *testing.T) {
	s := NewScheduler(1)
	var progress int
	victim := s.Spawn("victim", func(p *Proc) {
		for {
			p.Advance(Millisecond)
			progress++
		}
	})
	s.At(3500*Microsecond, func() { s.Kill(victim) })
	var after int
	s.At(10*Millisecond, func() { after = progress })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if progress != 3 || after != 3 {
		t.Errorf("victim advanced %d/%d times, want 3 then frozen", progress, after)
	}
	// Killing again is a no-op.
	s2 := NewScheduler(1)
	p2 := s2.Spawn("twice", func(p *Proc) { p.Advance(Millisecond) })
	s2.At(5*Millisecond, func() { s2.Kill(p2); s2.Kill(p2) })
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKillRecvBlocked: killing a Proc parked in Recv does not deadlock
// the run, and a message later sent to it is swallowed.
func TestKillRecvBlocked(t *testing.T) {
	s := NewScheduler(1)
	m := NewMailbox(s, "box")
	victim := s.Spawn("victim", func(p *Proc) {
		p.Recv(m)
		t.Error("victim must never receive")
	})
	s.At(Millisecond, func() { s.Kill(victim) })
	s.At(2*Millisecond, func() { m.Put("to the dead") })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestKillSelf: a Proc that kills itself unwinds at once, like a crash at
// that instruction — code after the Kill never runs, its deferred cleanup
// does, and the rest of the simulation carries on undisturbed.
func TestKillSelf(t *testing.T) {
	done := make(chan struct{})
	go func() {
		defer close(done)
		s := NewScheduler(1)
		var after, unwound bool
		var bystander int
		s.Spawn("suicide", func(p *Proc) {
			defer func() { unwound = true }()
			p.Advance(Millisecond)
			s.Kill(p)
			after = true
		})
		s.Spawn("bystander", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Advance(Millisecond)
				bystander++
			}
		})
		if err := s.Run(); err != nil {
			t.Error(err)
		}
		if after || !unwound {
			t.Errorf("self-Kill: code after Kill ran=%v, deferred cleanup ran=%v", after, unwound)
		}
		if bystander != 3 {
			t.Errorf("bystander advanced %d times, want 3", bystander)
		}
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("self-Kill hung the scheduler")
	}
}

// TestKillFromProc: one Proc may kill another — parked or not yet started —
// and keep running itself.
func TestKillFromProc(t *testing.T) {
	s := NewScheduler(1)
	var progress int
	victim := s.Spawn("victim", func(p *Proc) {
		for {
			p.Advance(Millisecond)
			progress++
		}
	})
	var unstarted *Proc
	var killerDone bool
	s.Spawn("killer", func(p *Proc) {
		p.Advance(2500 * Microsecond)
		unstarted = s.Spawn("unstarted", func(*Proc) { t.Error("killed Proc must never start") })
		s.Kill(victim)
		s.Kill(unstarted)
		p.Advance(5 * Millisecond)
		killerDone = true
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if progress != 2 {
		t.Errorf("victim advanced %d times, want 2 then frozen", progress)
	}
	if !killerDone {
		t.Error("killer did not run to completion after its Kills")
	}
	if !victim.Killed() || !unstarted.Killed() {
		t.Error("killed Procs must report Killed")
	}
}
