package des

import (
	"errors"
	"fmt"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

func TestTimeString(t *testing.T) {
	cases := []struct {
		t    Time
		want string
	}{
		{500 * Nanosecond, "500ns"},
		{1500 * Nanosecond, "1.500us"},
		{2500 * Microsecond, "2.500ms"},
		{3 * Second, "3.000s"},
		{-2 * Second, "-2.000s"},
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.t), got, c.want)
		}
	}
}

func TestTimeSecondsRoundTrip(t *testing.T) {
	if got, err := ParseSeconds("1.5", 0); err != nil || got != 1500*Millisecond {
		t.Fatalf("ParseSeconds(1.5) = %v, %v", got, err)
	}
	if got := (250 * Millisecond).Seconds(); got != 0.25 {
		t.Fatalf("Seconds() = %v, want 0.25", got)
	}
}

func TestEventOrdering(t *testing.T) {
	s := NewScheduler(1)
	var order []int
	s.At(30, func() { order = append(order, 3) })
	s.At(10, func() { order = append(order, 1) })
	s.At(20, func() { order = append(order, 2) })
	// Same-time events must fire in insertion order.
	s.At(20, func() { order = append(order, 21) })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := []int{1, 2, 21, 3}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	if s.Now() != 30 {
		t.Fatalf("final time = %v, want 30", s.Now())
	}
}

func TestEventInPastPanics(t *testing.T) {
	s := NewScheduler(1)
	s.At(10, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		s.At(5, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcAdvance(t *testing.T) {
	s := NewScheduler(1)
	var at []Time
	s.Spawn("p", func(p *Proc) {
		at = append(at, p.Now())
		p.Advance(5 * Microsecond)
		at = append(at, p.Now())
		p.Advance(0)
		at = append(at, p.Now())
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(at) != 3 || at[0] != 0 || at[1] != 5*Microsecond || at[2] != 5*Microsecond {
		t.Fatalf("times = %v", at)
	}
}

func TestProcInterleavingDeterministic(t *testing.T) {
	run := func() []string {
		s := NewScheduler(42)
		var log []string
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("p%d", i)
			d := Time(i+1) * Microsecond
			s.Spawn(name, func(p *Proc) {
				for k := 0; k < 3; k++ {
					p.Advance(d)
					log = append(log, fmt.Sprintf("%s@%v", name, p.Now()))
				}
			})
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		return log
	}
	a, b := run(), run()
	if fmt.Sprint(a) != fmt.Sprint(b) {
		t.Fatalf("nondeterministic interleaving:\n%v\n%v", a, b)
	}
}

func TestMailboxFIFO(t *testing.T) {
	s := NewScheduler(1)
	mb := NewMailbox(s, "mb")
	var got []int
	s.Spawn("recv", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, p.Recv(mb).(int))
		}
	})
	s.Spawn("send", func(p *Proc) {
		p.Advance(Microsecond)
		mb.Put(1)
		mb.Put(2)
		mb.Put(3)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(got) != "[1 2 3]" {
		t.Fatalf("got %v", got)
	}
}

func TestMailboxPutAfterDelay(t *testing.T) {
	s := NewScheduler(1)
	mb := NewMailbox(s, "mb")
	var when Time
	s.Spawn("recv", func(p *Proc) {
		p.Recv(mb)
		when = p.Now()
	})
	mb.PutAfter(7*Microsecond, "x")
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if when != 7*Microsecond {
		t.Fatalf("received at %v, want 7us", when)
	}
}

func TestMailboxMultipleWaitersServedInOrder(t *testing.T) {
	s := NewScheduler(1)
	mb := NewMailbox(s, "mb")
	var got []string
	for i := 0; i < 3; i++ {
		name := fmt.Sprintf("w%d", i)
		s.Spawn(name, func(p *Proc) {
			v := p.Recv(mb)
			got = append(got, fmt.Sprintf("%s=%v", name, v))
		})
	}
	s.Spawn("send", func(p *Proc) {
		p.Advance(Microsecond)
		mb.Put("a")
		mb.Put("b")
		mb.Put("c")
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	want := "[w0=a w1=b w2=c]"
	if fmt.Sprint(got) != want {
		t.Fatalf("got %v, want %v", got, want)
	}
}

// TestMailboxReleasesDeliveredValues: the queue's backing array does not
// keep a delivered value alive, a drained queue reuses its slot, and a
// timed-out waiter leaves no stale pointer behind.
func TestMailboxReleasesDeliveredValues(t *testing.T) {
	s := NewScheduler(1)
	mb := NewMailbox(s, "mb")
	one := NewMailbox(s, "one")
	s.Spawn("drain", func(p *Proc) {
		mb.Put(1)
		mb.Put(2)
		mb.Put(3)
		backing := mb.queue[:cap(mb.queue)]
		p.Recv(mb)
		p.Recv(mb)
		p.RecvTimeout(mb, Microsecond)
		for i, v := range backing {
			if v != nil {
				t.Errorf("slot %d still holds delivered value %v", i, v)
			}
		}
		// One message at a time: the second Put lands in the first's slot.
		one.Put(1)
		slot := &one.queue[0]
		p.Recv(one)
		one.Put(2)
		if &one.queue[0] != slot {
			t.Error("drained queue did not reuse its slot")
		}
		p.Recv(one)
	})
	for i, d := range []Time{Millisecond, 5 * Millisecond} {
		s.Spawn(fmt.Sprintf("wait%d", i), func(p *Proc) {
			p.Advance(Microsecond)
			p.RecvTimeout(mb, d)
		})
	}
	s.At(2*Millisecond, func() {
		tail := mb.waiters[len(mb.waiters):cap(mb.waiters)]
		for i, w := range tail {
			if w != nil {
				t.Errorf("vacated waiter slot %d still points at %s", i, w.p.Name())
			}
		}
		mb.Put(5)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestGate(t *testing.T) {
	s := NewScheduler(1)
	g := NewGate("g", false)
	var passed []Time
	for i := 0; i < 3; i++ {
		s.Spawn(fmt.Sprintf("w%d", i), func(p *Proc) {
			p.Await(g)
			passed = append(passed, p.Now())
		})
	}
	s.Spawn("opener", func(p *Proc) {
		p.Advance(10 * Microsecond)
		g.Set(true)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(passed) != 3 {
		t.Fatalf("only %d waiters passed", len(passed))
	}
	for _, ts := range passed {
		if ts != 10*Microsecond {
			t.Fatalf("waiter passed at %v, want 10us", ts)
		}
	}
	// Awaiting an open gate must not block.
	s2 := NewScheduler(1)
	g2 := NewGate("g2", true)
	ran := false
	s2.Spawn("p", func(p *Proc) { p.Await(g2); ran = true })
	if err := s2.Run(); err != nil {
		t.Fatal(err)
	}
	if !ran {
		t.Fatal("await on open gate blocked")
	}
}

func TestBarrierReleasesAtMaxArrival(t *testing.T) {
	s := NewScheduler(1)
	b := NewBarrier("b", 3)
	var released []Time
	delays := []Time{3 * Microsecond, 9 * Microsecond, 6 * Microsecond}
	for i, d := range delays {
		d := d
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Advance(d)
			p.Arrive(b)
			released = append(released, p.Now())
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if len(released) != 3 {
		t.Fatalf("released %d, want 3", len(released))
	}
	for _, ts := range released {
		if ts != 9*Microsecond {
			t.Fatalf("released at %v, want 9us (max arrival)", ts)
		}
	}
}

func TestBarrierIsReusable(t *testing.T) {
	s := NewScheduler(1)
	b := NewBarrier("b", 2)
	count := 0
	for i := 0; i < 2; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for round := 0; round < 5; round++ {
				p.Advance(Microsecond)
				p.Arrive(b)
			}
			count++
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 2 {
		t.Fatalf("count = %d", count)
	}
}

func TestSemaphore(t *testing.T) {
	s := NewScheduler(1)
	sem := NewSemaphore("sem", 1)
	active, maxActive := 0, 0
	for i := 0; i < 4; i++ {
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			p.Acquire(sem)
			active++
			if active > maxActive {
				maxActive = active
			}
			p.Advance(Microsecond)
			active--
			sem.Release()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if maxActive != 1 {
		t.Fatalf("maxActive = %d, want 1", maxActive)
	}
}

func TestDeadlockDetection(t *testing.T) {
	s := NewScheduler(1)
	g := NewGate("never", false)
	box := NewMailbox(s, "box")
	s.Spawn("stuck", func(p *Proc) { p.Await(g) })
	s.Spawn("rx", func(p *Proc) { p.Recv(box) })
	err := s.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("Run() = %v, want DeadlockError", err)
	}
	if want := []string{"stuck (await never)", "rx (recv box)"}; !reflect.DeepEqual(de.Blocked, want) {
		t.Fatalf("blocked = %q, want %q", de.Blocked, want)
	}
}

func TestStopAbortsParkedProcs(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("looper", func(p *Proc) {
		for {
			p.Advance(Microsecond)
		}
	})
	s.At(10*Microsecond, func() { s.Stop() })
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestProcPanicPropagates(t *testing.T) {
	s := NewScheduler(1)
	s.Spawn("bad", func(p *Proc) {
		p.Advance(Microsecond)
		panic("boom")
	})
	var pp *ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("panic in proc did not propagate to Run: %v", err)
	}
}

func TestSpawnFromProc(t *testing.T) {
	s := NewScheduler(1)
	var childTime Time
	s.Spawn("parent", func(p *Proc) {
		p.Advance(4 * Microsecond)
		s.Spawn("child", func(c *Proc) {
			childTime = c.Now()
		})
		p.Advance(Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if childTime != 4*Microsecond {
		t.Fatalf("child started at %v, want 4us", childTime)
	}
}

func TestRNGDeterminism(t *testing.T) {
	a, b := NewRNG(7), NewRNG(7)
	for i := 0; i < 100; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatal("same-seed RNGs diverged")
		}
	}
	if NewRNG(7).Uint64() == NewRNG(8).Uint64() {
		t.Fatal("different seeds produced identical first draw")
	}
}

func TestRNGJitterBounds(t *testing.T) {
	r := NewRNG(3)
	base := 100 * Microsecond
	for i := 0; i < 1000; i++ {
		j := r.Jitter(base, 0.25)
		if j < 75*Microsecond || j > 125*Microsecond {
			t.Fatalf("jitter %v outside [75us,125us]", j)
		}
	}
}

func TestRNGFloat64Range(t *testing.T) {
	r := NewRNG(11)
	for i := 0; i < 1000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 = %v out of [0,1)", f)
		}
	}
}

// Property: for any set of event times, events fire in sorted time order
// (stable by insertion for equal times).
func TestEventOrderingProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		s := NewScheduler(1)
		var fired []Time
		for _, r := range raw {
			at := Time(r)
			s.At(at, func() { fired = append(fired, at) })
		}
		if err := s.Run(); err != nil {
			return false
		}
		return sort.SliceIsSorted(fired, func(i, j int) bool { return fired[i] < fired[j] })
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: a barrier releases every party at the maximum arrival time,
// for any party count and any arrival offsets.
func TestBarrierMaxProperty(t *testing.T) {
	f := func(raw []uint16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 32 {
			raw = raw[:32]
		}
		s := NewScheduler(1)
		b := NewBarrier("b", len(raw))
		var max Time
		for _, r := range raw {
			if Time(r) > max {
				max = Time(r)
			}
		}
		ok := true
		for i, r := range raw {
			d := Time(r)
			s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
				p.Advance(d)
				p.Arrive(b)
				if p.Now() != max {
					ok = false
				}
			})
		}
		if err := s.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
