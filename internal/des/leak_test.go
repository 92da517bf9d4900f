package des

import (
	"fmt"
	"runtime"
	"testing"
	"time"
)

// settleGoroutines waits for the goroutine count to fall back to base and
// reports it. A Proc's coroutine exits synchronously when it finishes, but
// Cluster workers may still be returning after their WaitGroup barrier, so
// the count is polled briefly instead of read once.
func settleGoroutines(base int) int {
	deadline := time.Now().Add(2 * time.Second)
	for {
		n := runtime.NumGoroutine()
		if n <= base || time.Now().After(deadline) {
			return n
		}
		time.Sleep(time.Millisecond)
	}
}

// spinners spawns n Procs on s that advance forever.
func spinners(s *Scheduler, n int) {
	for i := 0; i < n; i++ {
		s.Spawn(fmt.Sprintf("spin%d", i), func(p *Proc) {
			for {
				p.Advance(Microsecond)
			}
		})
	}
}

// TestNoGoroutineLeak: every teardown path finishes every Proc's
// coroutine, so the host goroutine count returns to its baseline. A
// coroutine that is never resumed to completion would leak silently.
func TestNoGoroutineLeak(t *testing.T) {
	wantPanic := func(t *testing.T, err error) {
		if _, ok := err.(*ProcPanicError); !ok {
			t.Errorf("Run returned %v, want a *ProcPanicError", err)
		}
	}
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"run", func(t *testing.T) {
			s := NewScheduler(1)
			ab, ba := NewMailbox(s, "ab"), NewMailbox(s, "ba")
			s.Spawn("a", func(p *Proc) {
				for i := 0; i < 10; i++ {
					ab.Put(i)
					p.Recv(ba)
				}
			})
			s.Spawn("b", func(p *Proc) {
				for i := 0; i < 10; i++ {
					ba.Put(p.Recv(ab))
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"stop", func(t *testing.T) {
			s := NewScheduler(1)
			spinners(s, 4)
			s.At(5*Microsecond, func() {
				s.Spawn("never-started", func(*Proc) {})
				s.Stop()
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"deadlock", func(t *testing.T) {
			s := NewScheduler(1)
			box := NewMailbox(s, "never")
			for i := 0; i < 3; i++ {
				s.Spawn(fmt.Sprintf("stuck%d", i), func(p *Proc) { p.Recv(box) })
			}
			if err := s.Drain(); err != nil {
				t.Fatal(err)
			}
			if _, ok := s.Finish().(*DeadlockError); !ok {
				t.Fatal("want *DeadlockError from Finish")
			}
		}},
		{"livelock", func(t *testing.T) {
			s := NewScheduler(1, WithBudget(Budget{MaxEvents: 100}))
			spinners(s, 4)
			if _, ok := s.Run().(*LivelockError); !ok {
				t.Fatal("want *LivelockError")
			}
		}},
		{"panic", func(t *testing.T) {
			s := NewScheduler(1)
			spinners(s, 4)
			s.Spawn("bad", func(p *Proc) {
				p.Advance(3 * Microsecond)
				panic("boom")
			})
			wantPanic(t, s.Run())
		}},
		{"kill", func(t *testing.T) {
			base := runtime.NumGoroutine()
			s := NewScheduler(1)
			parked := s.Spawn("parked", func(p *Proc) { p.Advance(Second) })
			s.At(Millisecond, func() {
				s.Kill(parked)
				s.Kill(s.Spawn("never-started", func(*Proc) {}))
				if n := settleGoroutines(base); n > base {
					t.Errorf("after Kill: %d goroutines, want %d", n, base)
				}
			})
			if err := s.Run(); err != nil {
				t.Fatal(err)
			}
		}},
		{"cluster-panic", func(t *testing.T) {
			c := NewCluster(4, Microsecond, 1, WithHostParallelism(2))
			for i := 0; i < 4; i++ {
				spinners(c.Shard(i), 2)
			}
			c.Shard(2).Spawn("bad", func(p *Proc) {
				p.Advance(5 * Microsecond)
				panic("boom")
			})
			wantPanic(t, c.Run())
		}},
		{"cluster-deadlock", func(t *testing.T) {
			c := NewCluster(4, Microsecond, 1, WithHostParallelism(2))
			for i := 0; i < 4; i++ {
				s := c.Shard(i)
				box := NewMailbox(s, "never")
				s.Spawn("stuck", func(p *Proc) {
					p.Advance(Time(i+1) * Microsecond)
					p.Recv(box)
				})
			}
			if _, ok := c.Run().(*DeadlockError); !ok {
				t.Fatal("want *DeadlockError")
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			tc.run(t)
			if n := settleGoroutines(base); n > base {
				t.Errorf("%d goroutines after teardown, want baseline %d", n, base)
			}
		})
	}
}
