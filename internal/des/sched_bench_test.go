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
// goroutine, and take it back when the Proc parks again.
func BenchmarkProcSwitch(b *testing.B) {
	for _, d := range []Time{0, 1} {
		name := "advance0"
		if d > 0 {
			name = "advance1"
		}
		b.Run(name, func(b *testing.B) {
			b.ReportAllocs()
			s := NewScheduler(1)
			s.Spawn("bench", func(p *Proc) {
				for i := 0; i < b.N; i++ {
					p.Advance(d)
				}
			})
			b.ResetTimer()
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
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
