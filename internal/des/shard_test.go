package des

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"
)

// ringTrace runs a token-ring workload over shards shards with the given
// host parallelism and returns the full delivery trace: every hop records
// (destination shard, virtual arrival time, token value). The workload
// exercises intra-shard scheduling, Advance, mailboxes and cross-shard
// Casts together.
func ringTrace(t *testing.T, shards, workers int, seed uint64) []string {
	t.Helper()
	const hops = 40
	look := 10 * Microsecond
	c := NewCluster(shards, look, seed, WithHostParallelism(workers))
	var trace []string
	boxes := make([]*Mailbox, shards)
	for i := 0; i < shards; i++ {
		boxes[i] = NewMailbox(c.Shard(i), fmt.Sprintf("ring%d", i))
	}
	for i := 0; i < shards; i++ {
		i := i
		s := c.Shard(i)
		s.Spawn(fmt.Sprintf("node%d", i), func(p *Proc) {
			if i == 0 {
				boxes[0].Put(0)
			}
			for {
				v := p.Recv(boxes[i]).(int)
				trace = append(trace, fmt.Sprintf("%d@%v=%d", i, p.Now(), v))
				if v >= hops {
					return
				}
				p.Advance(Time(1+v%3) * Microsecond)
				next := (i + 1) % shards
				d := look + Time(v%5)*Microsecond
				s.Cast(next, d, func() { boxes[next].Put(v + 1) })
			}
		})
	}
	// Every node but the one holding the final token blocks in Recv
	// forever; mark them daemons so a clean drain is not a deadlock.
	for i := 0; i < shards; i++ {
		for _, p := range c.Shard(i).procs {
			p.SetDaemon(true)
		}
	}
	if err := c.Run(); err != nil {
		t.Fatalf("ring run: %v", err)
	}
	return trace
}

func TestClusterDeterministicAcrossHostParallelism(t *testing.T) {
	base := ringTrace(t, 4, 1, 7)
	if len(base) == 0 {
		t.Fatal("empty trace")
	}
	for _, workers := range []int{2, 4, 8} {
		got := ringTrace(t, 4, workers, 7)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d trace diverges:\n got %v\nwant %v", workers, got, base)
		}
	}
}

func TestClusterSeedAndShardCountMatter(t *testing.T) {
	// Different seeds may legally produce the same RNG-free trace; the
	// point here is that a trace is a pure function of (seed, shards).
	a := ringTrace(t, 4, 4, 7)
	b := ringTrace(t, 4, 4, 7)
	if !reflect.DeepEqual(a, b) {
		t.Error("same (seed, shards) produced different traces")
	}
}

// TestSingleShardMatchesSerial: a one-shard cluster must execute an
// RNG-free workload identically to a plain Scheduler — same virtual
// times, same interleaving.
func TestSingleShardMatchesSerial(t *testing.T) {
	workload := func(s *Scheduler) []string {
		var trace []string
		box := NewMailbox(s, "m")
		s.Spawn("producer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				p.Advance(3 * Microsecond)
				box.PutAfter(Microsecond, i)
			}
		})
		s.Spawn("consumer", func(p *Proc) {
			for i := 0; i < 5; i++ {
				v := p.Recv(box)
				trace = append(trace, fmt.Sprintf("%v=%v", p.Now(), v))
			}
		})
		return trace
	}

	serial := NewScheduler(42)
	serialTrace := workload(serial)
	if err := serial.Run(); err != nil {
		t.Fatal(err)
	}

	c := NewCluster(1, 5*Microsecond, 42)
	clusterTrace := workload(c.Shard(0))
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(serialTrace, clusterTrace) {
		t.Errorf("single-shard cluster diverges from serial:\n serial  %v\n cluster %v", serialTrace, clusterTrace)
	}
}

func TestCastBelowLookaheadPanics(t *testing.T) {
	c := NewCluster(2, 10*Microsecond, 1)
	c.Shard(0).Spawn("fast", func(p *Proc) {
		p.Scheduler().Cast(1, Microsecond, func() {})
	})
	var pe *ProcPanicError
	if err := c.Run(); !errors.As(err, &pe) {
		t.Fatalf("want *ProcPanicError, got %v", err)
	}
	if !strings.Contains(fmt.Sprint(pe.Value), "below lookahead") {
		t.Errorf("panic value %v lacks lookahead context", pe.Value)
	}
}

func TestCastOnUnshardedScheduler(t *testing.T) {
	s := NewScheduler(1)
	var at Time
	s.Spawn("p", func(p *Proc) {
		s.Cast(0, 3*Microsecond, func() { at = s.Now() })
		p.Advance(10 * Microsecond)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 3*Microsecond {
		t.Errorf("Cast on unsharded scheduler fired at %v, want 3us", at)
	}
	if s.ShardID() != 0 {
		t.Errorf("unsharded ShardID = %d", s.ShardID())
	}

	defer func() {
		if recover() == nil {
			t.Error("Cast to shard 1 on unsharded scheduler must panic")
		}
	}()
	s.Cast(1, Microsecond, func() {})
}

func TestClusterBudgetAggregates(t *testing.T) {
	c := NewCluster(2, Microsecond, 3,
		WithClusterBudget(Budget{MaxEvents: 100}), WithHostParallelism(2))
	for i := 0; i < 2; i++ {
		s := c.Shard(i)
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Advance(Microsecond)
			}
		})
	}
	err := c.Run()
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("want *LivelockError, got %v", err)
	}
	if le.Events < 100 {
		t.Errorf("aggregate events %d below budget trip point", le.Events)
	}
	if len(le.Hot) == 0 {
		t.Error("no hot procs in aggregate diagnosis")
	}
}

func TestClusterVirtualBudget(t *testing.T) {
	c := NewCluster(2, Microsecond, 3,
		WithClusterBudget(Budget{MaxVirtual: 50 * Microsecond}))
	for i := 0; i < 2; i++ {
		s := c.Shard(i)
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Advance(Microsecond)
			}
		})
	}
	err := c.Run()
	le, ok := err.(*LivelockError)
	if !ok {
		t.Fatalf("want *LivelockError, got %v", err)
	}
	if le.Virtual > 51*Microsecond {
		t.Errorf("run overshot the virtual horizon: %v", le.Virtual)
	}
}

func TestClusterDeadlock(t *testing.T) {
	c := NewCluster(2, Microsecond, 3)
	for i := 0; i < 2; i++ {
		s := c.Shard(i)
		box := NewMailbox(s, fmt.Sprintf("never%d", i))
		s.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) {
			p.Recv(box)
		})
	}
	err := c.Run()
	de, ok := err.(*DeadlockError)
	if !ok {
		t.Fatalf("want *DeadlockError, got %v", err)
	}
	if len(de.Blocked) != 2 {
		t.Errorf("blocked = %v, want both stuck procs", de.Blocked)
	}
}

func TestClusterProcPanicTearsDownAllShards(t *testing.T) {
	c := NewCluster(3, Microsecond, 3, WithHostParallelism(3))
	for i := 0; i < 3; i++ {
		i := i
		s := c.Shard(i)
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			if i == 1 {
				p.Advance(2 * Microsecond)
				panic("boom")
			}
			for {
				p.Advance(Microsecond)
			}
		})
	}
	var pe *ProcPanicError
	if err := c.Run(); !errors.As(err, &pe) {
		t.Fatalf("want *ProcPanicError, got %v", err)
	}
	if pe.Proc != "p1" || pe.Value != "boom" {
		t.Errorf("wrong panic attribution: %+v", pe)
	}
}

func TestClusterStop(t *testing.T) {
	c := NewCluster(2, Microsecond, 3)
	stopAt := 5 * Microsecond
	c.Shard(0).At(stopAt, func() { c.Shard(0).Stop() })
	for i := 0; i < 2; i++ {
		s := c.Shard(i)
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Advance(Microsecond)
			}
		})
	}
	if err := c.Run(); err != nil {
		t.Fatalf("stopped run: %v", err)
	}
	if c.Shard(0).Now() > stopAt+Microsecond {
		t.Errorf("shard 0 ran far past Stop: %v", c.Shard(0).Now())
	}
}

// TestClusterCastBeforeRun: a cast made before Run, from a shard with no
// events of its own, is delivered at the first barrier.
func TestClusterCastBeforeRun(t *testing.T) {
	const look = 10 * Microsecond
	c := NewCluster(2, look, 3)
	box := NewMailbox(c.Shard(0), "early")
	var at Time
	c.Shard(0).Spawn("wait", func(p *Proc) {
		p.Recv(box)
		at = p.Now()
	})
	c.Shard(1).Cast(0, look, func() { box.Put(1) })
	if err := c.Run(); err != nil {
		t.Fatal(err)
	}
	if at != look {
		t.Errorf("cast delivered at %v, want %v", at, look)
	}
}

func TestNewClusterValidates(t *testing.T) {
	for name, f := range map[string]func(){
		"zero shards":    func() { NewCluster(0, Microsecond, 1) },
		"zero lookahead": func() { NewCluster(2, 0, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			f()
		}()
	}
}

// BenchmarkClusterRing measures windowed-round overhead relative to shard
// count; run with -bench over internal/des to compare.
func BenchmarkClusterRing(b *testing.B) {
	for _, shards := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("shards=%d", shards), func(b *testing.B) {
			for n := 0; n < b.N; n++ {
				c := NewCluster(shards, 10*Microsecond, 7, WithHostParallelism(shards))
				for i := 0; i < shards; i++ {
					s := c.Shard(i)
					s.Spawn("w", func(p *Proc) {
						for k := 0; k < 200; k++ {
							p.Advance(Microsecond)
						}
					})
				}
				if err := c.Run(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestSingleBusyRoundAllocatesNothing: once the round scratch has grown, a
// round in which one shard runs and casts once allocates nothing — no
// per-round status slice, no sort swapper, no worker goroutines.
func TestSingleBusyRoundAllocatesNothing(t *testing.T) {
	c := wavefront(8, 2, 0)
	defer abortAll(c.shards...)
	round := func() {
		t0, ok := c.earliest()
		if !ok {
			t.Fatal("wavefront drained")
		}
		if end, err := c.round(t0); end {
			t.Fatalf("wavefront ended: %v", err)
		}
	}
	// The first round starts every shard's Proc; later rounds pass the
	// token on. Warm up over a few laps so every buffer has its size.
	for i := 0; i < 4*c.Shards(); i++ {
		round()
	}
	round()
	if len(c.busy) != 1 || len(c.casts) != 1 {
		t.Fatalf("round had %d busy shards and %d casts, want 1 and 1", len(c.busy), len(c.casts))
	}
	if n := testing.AllocsPerRun(100, round); n != 0 {
		t.Errorf("single-busy round allocates %v times, want 0", n)
	}
}

// mixedTrace runs a workload that alternates rounds with one busy shard
// and rounds with every shard busy: a token circles the shards, and each
// time it completes a lap shard 0 starts a ping-pong phase on every
// shard that lasts several windows. It returns each shard's log, in shard
// order, and how many rounds had one busy shard and how many had more.
func mixedTrace(t *testing.T, workers int) (trace []string, single, multi int) {
	t.Helper()
	const shards, laps, trips = 4, 6, 5
	look := 10 * Microsecond
	c := NewCluster(shards, look, 11, WithHostParallelism(workers))
	logs := make([][]string, shards)
	ring := make([]*Mailbox, shards)
	start := make([]*Mailbox, shards)
	for i := 0; i < shards; i++ {
		s := c.Shard(i)
		ring[i], start[i] = NewMailbox(s, "ring"), NewMailbox(s, "start")
		ab, ba := NewMailbox(s, "ab"), NewMailbox(s, "ba")
		logf := func(p *Proc, format string, args ...any) {
			logs[i] = append(logs[i], fmt.Sprintf("%d@%v ", i, p.Now())+fmt.Sprintf(format, args...))
		}
		s.Spawn("node", func(p *Proc) {
			for {
				v := p.Recv(ring[i]).(int)
				logf(p, "token %d", v)
				if v == laps*shards {
					return
				}
				if i == 0 && v > 0 {
					for j := 0; j < shards; j++ {
						s.Cast(j, look+Time(j)*Microsecond, func() { start[j].Put(trips) })
					}
				}
				p.Advance(Time(1+v%3) * Microsecond)
				next := (i + 1) % shards
				s.Cast(next, look+Time(v%5)*Microsecond, func() { ring[next].Put(v + 1) })
			}
		})
		s.Spawn("ping", func(p *Proc) {
			for {
				n := p.Recv(start[i]).(int)
				for k := 0; k < n; k++ {
					ab.Put(k)
					p.Recv(ba)
					p.Advance(2 * Microsecond)
				}
				logf(p, "phase done")
			}
		})
		s.Spawn("pong", func(p *Proc) {
			for {
				v := p.Recv(ab)
				p.Advance(Time(3+i) * Microsecond)
				ba.Put(v)
			}
		})
		for _, p := range s.procs {
			p.SetDaemon(true)
		}
	}
	ring[0].Put(0)
	defer abortAll(c.shards...)
	for {
		t0, ok := c.earliest()
		if !ok {
			break
		}
		if end, err := c.round(t0); end {
			t.Fatalf("workers=%d: run ended early: %v", workers, err)
		}
		if len(c.busy) == 1 {
			single++
		} else {
			multi++
		}
	}
	for _, l := range logs {
		trace = append(trace, l...)
	}
	return trace, single, multi
}

// TestClusterMixedRoundsDeterministic: rounds that run inline and rounds
// that fan out over host workers interleave without changing any result.
func TestClusterMixedRoundsDeterministic(t *testing.T) {
	base, single, multi := mixedTrace(t, 1)
	if single == 0 || multi == 0 {
		t.Fatalf("workload ran %d single-busy and %d multi-busy rounds, want both", single, multi)
	}
	for _, workers := range []int{2, 8} {
		got, _, _ := mixedTrace(t, workers)
		if !reflect.DeepEqual(got, base) {
			t.Errorf("workers=%d trace diverges:\n got %v\nwant %v", workers, got, base)
		}
	}
}
