package des

import (
	"fmt"
	"testing"
)

// BenchmarkSchedulerNowRing measures pure event-queue throughput for the
// dominant workload: chains of After(0) events (every Proc step and wake
// goes through this path). One shared closure is rescheduled, so ns/op and
// allocs/op measure the queue itself, not the benchmark harness.
func BenchmarkSchedulerNowRing(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(0, chain)
		}
	}
	s.After(0, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerHeap measures event-queue throughput when every event
// lands at a strictly later timestamp, forcing the ordered queue (no
// same-time fast path applies).
func BenchmarkSchedulerHeap(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	n := 0
	var chain func()
	chain = func() {
		n++
		if n < b.N {
			s.After(1, chain)
		}
	}
	s.After(1, chain)
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkSchedulerMixed measures the realistic mix: a standing population
// of future-time events (keeping the ordered queue non-trivially deep)
// with bursts of After(0) events at every timestamp.
func BenchmarkSchedulerMixed(b *testing.B) {
	for _, depth := range []int{16, 256} {
		b.Run(fmt.Sprintf("depth%d", depth), func(b *testing.B) {
			b.ReportAllocs()
			s := NewScheduler(1)
			n := 0
			var tick, imm func()
			imm = func() { n++ }
			tick = func() {
				n++
				if n < b.N {
					s.After(Time(1+s.rng.Intn(64)), tick)
					for i := 0; i < 3 && n < b.N; i++ {
						n++
						s.After(0, imm)
					}
				}
			}
			for i := 0; i < depth; i++ {
				s.After(Time(1+s.rng.Intn(64)), tick)
			}
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkProcSwitch measures the full context-switch round trip of one
// Proc step: schedule the resume event, hand control to the Proc
// goroutine, and take it back when the Proc parks again. Two Procs advance
// in lockstep, so every wake-up has the other's queued ahead of it and no
// Advance runs in place; one op is one Advance by either Proc.
func BenchmarkProcSwitch(b *testing.B) {
	for _, d := range []Time{0, 1} {
		name := "advance0"
		if d > 0 {
			name = "advance1"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := NewScheduler(1)
			n := 0
			for _, name := range []string{"a", "b"} {
				s.Spawn(name, func(p *Proc) {
					for ; n < b.N; n++ {
						p.Advance(d)
					}
				})
			}
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// BenchmarkAdvanceInPlace measures Advances whose wake-up is the next
// event, which run in place without a coroutine switch. chain is one Proc
// advancing alone (one op is one Advance); wavefront1 is the one-shard
// wavefront, where each hop's Advance runs in place and the hop's Recv
// parks (one op is one hop). Compare BenchmarkProcSwitch and
// BenchmarkClusterWavefront.
func BenchmarkAdvanceInPlace(b *testing.B) {
	b.Run("chain", func(b *testing.B) {
		b.ReportAllocs()
		s := NewScheduler(1)
		s.Spawn("chain", func(p *Proc) {
			for i := 0; i < b.N; i++ {
				p.Advance(1)
			}
		})
		b.ResetTimer()
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	})
	b.Run("wavefront1", func(b *testing.B) {
		b.ReportAllocs()
		c := wavefront(1, 1, b.N)
		b.ResetTimer()
		if err := c.Run(); err != nil {
			b.Fatal(err)
		}
	})
}

// BenchmarkProcPingPong measures two Procs handing a token back and forth
// through a Mailbox — the communication-heavy switch pattern of the MPI
// models.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	s := NewScheduler(1)
	ab := NewMailbox(s, "a")
	ba := NewMailbox(s, "b")
	s.Spawn("a", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ab.Put(i)
			p.Recv(ba)
		}
	})
	s.Spawn("b", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			v := p.Recv(ab)
			ba.Put(v)
		}
	})
	b.ResetTimer()
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkProcSpawn measures one short-lived Proc's whole life: spawn,
// start, one Advance, exit — the pattern of the session server's
// per-session Procs. Each Proc spawns its successor before exiting; the
// chain restarts on a fresh Scheduler every 1024 Procs so the Scheduler's
// Proc list stays bounded.
func BenchmarkProcSpawn(b *testing.B) {
	b.ReportAllocs()
	for left := b.N; left > 0; {
		batch := min(left, 1024)
		left -= batch
		s := NewScheduler(1)
		var body func(p *Proc)
		body = func(p *Proc) {
			p.Advance(Microsecond)
			if batch--; batch > 0 {
				s.Spawn("session", body)
			}
		}
		s.Spawn("session", body)
		if err := s.Run(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkClusterRound measures one windowed round of an 8-shard Cluster
// on 2 host workers. In every shard two Procs ping-pong a token through
// Mailboxes, five round trips per window — 160 Proc switches per round in
// all — and a shard's Procs are resumed from whichever worker claims the
// shard that round.
func BenchmarkClusterRound(b *testing.B) {
	const shards, window = 8, 10 * Microsecond
	b.ReportAllocs()
	c := NewCluster(shards, window, 1, WithHostParallelism(2))
	for i := 0; i < shards; i++ {
		s := c.Shard(i)
		ab, ba := NewMailbox(s, "ab"), NewMailbox(s, "ba")
		trips := 5 * b.N
		s.Spawn("ping", func(p *Proc) {
			for k := 0; k < trips; k++ {
				ab.Put(k)
				p.Recv(ba)
				p.Advance(Microsecond)
			}
		})
		s.Spawn("pong", func(p *Proc) {
			for k := 0; k < trips; k++ {
				v := p.Recv(ab)
				p.Advance(Microsecond)
				ba.Put(v)
			}
		})
	}
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}

// wavefrontToken is the one token of a wavefront cluster; it counts the
// hops it has made.
type wavefrontToken struct{ hops int }

// wavefront builds a shards-shard cluster whose only work is one token
// handed from shard to shard: each shard's Proc receives it, computes for
// a microsecond and casts it to the next shard a lookahead later, so every
// round has exactly one busy shard and one cast. The shard holding the
// token after stopAfter hops stops the run; 0 never stops.
func wavefront(shards, workers, stopAfter int) *Cluster {
	const look = 10 * Microsecond
	c := NewCluster(shards, look, 1, WithHostParallelism(workers))
	tok := &wavefrontToken{}
	boxes := make([]*Mailbox, shards)
	hand := make([]func(), shards) // hand[i] delivers the token to shard i
	for i := range boxes {
		box := NewMailbox(c.Shard(i), "token")
		boxes[i], hand[i] = box, func() { box.Put(tok) }
	}
	for i := 0; i < shards; i++ {
		s, next := c.Shard(i), (i+1)%shards
		s.Spawn("stage", func(p *Proc) {
			for {
				t := p.Recv(boxes[i]).(*wavefrontToken)
				if t.hops++; t.hops == stopAfter {
					s.Stop()
				}
				p.Advance(Microsecond)
				s.Cast(next, look, hand[next])
			}
		}).SetDaemon(true)
	}
	boxes[0].Put(tok)
	return c
}

// BenchmarkClusterWavefront measures one round of an 8-shard Cluster on 2
// host workers when a single shard has work: the shape of nearly every
// round of the sweep3d wavefront. Compare BenchmarkClusterRound, where
// every shard is busy.
func BenchmarkClusterWavefront(b *testing.B) {
	b.ReportAllocs()
	c := wavefront(8, 2, b.N)
	b.ResetTimer()
	if err := c.Run(); err != nil {
		b.Fatal(err)
	}
}
