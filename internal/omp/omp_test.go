package omp

import (
	"errors"
	"fmt"
	"testing"
	"testing/quick"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// runTeam executes main on the master thread of a fresh n-thread runtime.
func runTeam(t *testing.T, n int, hooks Hooks, main func(rt *Runtime, master *proc.Thread)) {
	t.Helper()
	s := des.NewScheduler(3)
	cfg := machine.MustNew("ibm-power3")
	img := image.NewBuilder("omp").Build()
	pr := proc.NewProcess(s, cfg, "omp", 0, 0, img)
	pr.Start(func(master *proc.Thread) {
		rt := New(pr, master, n, hooks)
		main(rt, master)
		rt.Shutdown()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestParallelRunsAllThreads(t *testing.T) {
	for _, n := range []int{1, 2, 4, 8} {
		ids := make(map[int]int)
		runTeam(t, n, nil, func(rt *Runtime, master *proc.Thread) {
			rt.Parallel(master, "r1", func(th *proc.Thread, id int) {
				ids[id]++
				th.Work(10_000)
			})
		})
		if len(ids) != n {
			t.Fatalf("n=%d: body ran on %d distinct ids", n, len(ids))
		}
		for id, c := range ids {
			if c != 1 {
				t.Fatalf("n=%d: id %d ran %d times", n, id, c)
			}
		}
	}
}

func TestJoinWaitsForSlowestThread(t *testing.T) {
	var joinAt des.Time
	runTeam(t, 4, nil, func(rt *Runtime, master *proc.Thread) {
		rt.Parallel(master, "r", func(th *proc.Thread, id int) {
			// Thread 3 does 4x the work; join must wait for it.
			th.WorkTime(des.Time(1+3*boolToInt(id == 3)) * des.Millisecond)
		})
		master.Sync()
		joinAt = master.Now()
	})
	if joinAt < 4*des.Millisecond {
		t.Fatalf("join completed at %v, before slowest thread's 4ms", joinAt)
	}
}

func boolToInt(b bool) int {
	if b {
		return 1
	}
	return 0
}

func TestParallelSpeedsUpWork(t *testing.T) {
	elapsed := func(n int) des.Time {
		var e des.Time
		runTeam(t, n, nil, func(rt *Runtime, master *proc.Thread) {
			start := master.Now()
			rt.Parallel(master, "loop", func(th *proc.Thread, id int) {
				lo, hi := ForStatic(0, 1600, id, rt.NumThreads())
				for i := lo; i < hi; i++ {
					th.Work(10_000)
				}
			})
			master.Sync()
			e = master.Now() - start
		})
		return e
	}
	t1, t4 := elapsed(1), elapsed(4)
	if ratio := float64(t1) / float64(t4); ratio < 3.0 {
		t.Fatalf("4-thread speedup %.2fx, want >= 3x (t1=%v t4=%v)", ratio, t1, t4)
	}
}

func TestSequentialRegions(t *testing.T) {
	count := 0
	runTeam(t, 4, nil, func(rt *Runtime, master *proc.Thread) {
		for i := 0; i < 10; i++ {
			rt.Parallel(master, fmt.Sprintf("r%d", i), func(th *proc.Thread, id int) {
				if id == 0 {
					count++
				}
				th.Work(1000)
			})
		}
	})
	if count != 10 {
		t.Fatalf("regions run = %d", count)
	}
}

func TestTeamBarrier(t *testing.T) {
	after := make([]des.Time, 4)
	runTeam(t, 4, nil, func(rt *Runtime, master *proc.Thread) {
		rt.Parallel(master, "r", func(th *proc.Thread, id int) {
			th.WorkTime(des.Time(id+1) * des.Millisecond)
			rt.TeamBarrier(th)
			th.Sync()
			after[id] = th.Now()
		})
	})
	for id := 1; id < 4; id++ {
		if after[id] != after[0] {
			t.Fatalf("clocks after team barrier diverge: %v", after)
		}
	}
}

func TestCriticalMutualExclusion(t *testing.T) {
	depth, maxDepth := 0, 0
	sum := 0.0
	runTeam(t, 8, nil, func(rt *Runtime, master *proc.Thread) {
		rt.Parallel(master, "r", func(th *proc.Thread, id int) {
			for i := 0; i < 5; i++ {
				rt.Critical(th, "acc", func() {
					depth++
					if depth > maxDepth {
						maxDepth = depth
					}
					sum++
					th.Work(500)
					depth--
				})
			}
		})
	})
	if maxDepth != 1 {
		t.Fatalf("critical section concurrency = %d", maxDepth)
	}
	if sum != 40 {
		t.Fatalf("sum = %v, want 40", sum)
	}
}

func TestHooksFireInOrder(t *testing.T) {
	var events []string
	h := &recordingHooks{log: &events}
	runTeam(t, 2, h, func(rt *Runtime, master *proc.Thread) {
		rt.Parallel(master, "R", func(th *proc.Thread, id int) { th.Work(100) })
	})
	if len(events) == 0 || events[0] != "fork R" || events[len(events)-1] != "join R" {
		t.Fatalf("events = %v", events)
	}
	enters, exits := 0, 0
	for _, e := range events {
		switch e {
		case "enter R":
			enters++
		case "exit R":
			exits++
		}
	}
	if enters != 2 || exits != 2 {
		t.Fatalf("enter/exit counts = %d/%d, want 2/2: %v", enters, exits, events)
	}
}

type recordingHooks struct{ log *[]string }

func (h *recordingHooks) RegionFork(m *proc.Thread, r string) { *h.log = append(*h.log, "fork "+r) }
func (h *recordingHooks) RegionEnter(t *proc.Thread, r string, id int) {
	*h.log = append(*h.log, "enter "+r)
}
func (h *recordingHooks) RegionExit(t *proc.Thread, r string, id int) {
	*h.log = append(*h.log, "exit "+r)
}
func (h *recordingHooks) RegionJoin(m *proc.Thread, r string) { *h.log = append(*h.log, "join "+r) }

func TestNestedParallelPanics(t *testing.T) {
	s := des.NewScheduler(3)
	cfg := machine.MustNew("ibm-power3")
	pr := proc.NewProcess(s, cfg, "omp", 0, 0, image.NewBuilder("omp").Build())
	pr.Start(func(master *proc.Thread) {
		rt := New(pr, master, 2, nil)
		rt.Parallel(master, "outer", func(th *proc.Thread, id int) {
			if id == 0 {
				rt.Parallel(master, "inner", func(*proc.Thread, int) {})
			}
		})
	})
	var pp *des.ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("nested parallel did not panic: Run returned %v", err)
	}
}

func TestSuspendBetweenRegions(t *testing.T) {
	s := des.NewScheduler(3)
	cfg := machine.MustNew("ibm-power3")
	pr := proc.NewProcess(s, cfg, "omp", 0, 0, image.NewBuilder("omp").Build())
	stopped := false
	pr.Start(func(master *proc.Thread) {
		rt := New(pr, master, 4, nil)
		for i := 0; i < 40; i++ {
			rt.Parallel(master, "r", func(th *proc.Thread, id int) { th.Work(100_000) })
		}
		rt.Shutdown()
	})
	s.Spawn("ctl", func(p *des.Proc) {
		p.Advance(des.Millisecond)
		pr.RequestSuspend()
		pr.WaitStopped(p) // idle pooled workers must count as stopped
		stopped = true
		pr.Resume()
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if !stopped {
		t.Fatal("blocking suspend never completed with a pooled team")
	}
}

// Property: ForStatic partitions any iteration space exactly: chunks are
// disjoint, ordered, and cover [lo, hi).
func TestForStaticPartitionProperty(t *testing.T) {
	f := func(rawN uint16, rawTh uint8) bool {
		n := int(rawN) % 5000
		nth := int(rawTh)%16 + 1
		covered := 0
		prevEnd := 0
		for id := 0; id < nth; id++ {
			lo, hi := ForStatic(0, n, id, nth)
			if lo != prevEnd || hi < lo {
				return false
			}
			covered += hi - lo
			prevEnd = hi
		}
		return covered == n && prevEnd == n
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestForStaticBalance(t *testing.T) {
	lo, hi := ForStatic(0, 10, 0, 3)
	if hi-lo != 4 {
		t.Fatalf("chunk 0 = [%d,%d)", lo, hi)
	}
	lo, hi = ForStatic(0, 10, 2, 3)
	if hi-lo != 3 {
		t.Fatalf("chunk 2 = [%d,%d)", lo, hi)
	}
}
