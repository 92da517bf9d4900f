package mpi

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

// runWorld executes body on n ranks of a fresh world and returns it.
func runWorld(t testing.TB, n int, mk func(r int) Hooks, body func(c *Ctx)) *World {
	t.Helper()
	s := des.NewScheduler(7)
	cfg := machine.MustNew("ibm-power3")
	place, err := machine.Pack(cfg, n)
	if err != nil {
		t.Fatal(err)
	}
	w := NewWorld(s, place)
	for r := 0; r < n; r++ {
		r := r
		img := image.NewBuilder(fmt.Sprintf("test.%d", r)).Build()
		pr := proc.NewProcess(s, cfg, fmt.Sprintf("rank%d", r), r, place.NodeOf(r), img)
		var hooks Hooks
		if mk != nil {
			hooks = mk(r)
		}
		c := w.Register(r, nil, hooks)
		pr.Start(func(th *proc.Thread) {
			c.t = th
			c.Init()
			body(c)
			c.Finalize()
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestInitFinalize(t *testing.T) {
	for _, n := range []int{1, 2, 5, 16} {
		w := runWorld(t, n, nil, func(c *Ctx) {})
		for r := 0; r < n; r++ {
			c := w.Rank(r)
			if !c.finalized {
				t.Fatalf("n=%d rank %d not finalized", n, r)
			}
			if c.MainElapsed() < 0 {
				t.Fatalf("negative elapsed on rank %d", r)
			}
		}
	}
}

func TestSendRecvDeliversPayload(t *testing.T) {
	runWorld(t, 2, nil, func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 42, 800, CopyF64s([]float64{1, 2, 3}))
		} else {
			m := c.Recv(0, 42)
			if m.Src != 0 || m.Tag != 42 || m.Bytes != 800 {
				t.Errorf("message header = %+v", m)
			}
			p := m.Payload.([]float64)
			if len(p) != 3 || p[2] != 3 {
				t.Errorf("payload = %v", p)
			}
		}
	})
}

func TestMessageOrderPreservedPerPair(t *testing.T) {
	runWorld(t, 2, nil, func(c *Ctx) {
		if c.Rank() == 0 {
			for i := 0; i < 10; i++ {
				c.Send(1, 5, 8, float64(i))
			}
		} else {
			for i := 0; i < 10; i++ {
				m := c.Recv(0, 5)
				if m.Payload.(float64) != float64(i) {
					t.Errorf("out of order: got %v want %d", m.Payload, i)
				}
			}
		}
	})
}

func TestRecvChargesLatency(t *testing.T) {
	var sendAt, recvAt des.Time
	runWorld(t, 2, nil, func(c *Ctx) {
		if c.Rank() == 0 {
			sendAt = c.t.Now()
			c.Send(1, 0, 1<<20, nil)
		} else {
			c.Recv(0, 0)
			recvAt = c.t.Now()
		}
	})
	cfg := machine.MustNew("ibm-power3")
	wire := cfg.TransferTime(0, 0, 1<<20) // rank 0 and 1 share node 0
	if recvAt-sendAt < wire {
		t.Fatalf("recv completed %v after send, want >= %v wire time", recvAt-sendAt, wire)
	}
}

func TestAnySourceAnyTag(t *testing.T) {
	runWorld(t, 3, nil, func(c *Ctx) {
		switch c.Rank() {
		case 0:
			got := make(map[int]bool)
			for i := 0; i < 2; i++ {
				m := c.Recv(AnySource, AnyTag)
				got[m.Src] = true
			}
			if !got[1] || !got[2] {
				t.Errorf("wildcard recv missed a sender: %v", got)
			}
		default:
			c.Send(0, c.Rank()*10, 8, nil)
		}
	})
}

func TestSendrecvRing(t *testing.T) {
	n := 6
	runWorld(t, n, nil, func(c *Ctx) {
		right := (c.Rank() + 1) % n
		left := (c.Rank() + n - 1) % n
		m := c.Sendrecv(right, 1, 8, float64(c.Rank()), left, 1)
		if m.Payload.(float64) != float64(left) {
			t.Errorf("rank %d got %v from ring, want %d", c.Rank(), m.Payload, left)
		}
	})
}

// TestIsendIrecvWaitall: rank 0 holds one pending Irecv per peer and
// waits on them in reverse posting order; each completes with its own
// sender's message.
func TestIsendIrecvWaitall(t *testing.T) {
	runWorld(t, 4, nil, func(c *Ctx) {
		if c.Rank() != 0 {
			c.Send(0, 9, 64*c.Rank(), nil)
			return
		}
		var reqs []*Request
		for r := 1; r < 4; r++ {
			reqs = append(reqs, c.Irecv(r, 9))
		}
		for i := len(reqs) - 1; i >= 0; i-- {
			if m := c.Wait(reqs[i]); m.Src != i+1 || m.Bytes != 64*(i+1) {
				t.Errorf("wait on request %d = %+v, want %d bytes from rank %d", i, m, 64*(i+1), i+1)
			}
		}
	})
}

func TestBarrierAlignsClocks(t *testing.T) {
	n := 5
	times := make([]des.Time, n)
	runWorld(t, n, nil, func(c *Ctx) {
		// Skew the ranks, then barrier.
		c.t.WorkTime(des.Time(c.Rank()+1) * des.Millisecond)
		c.Barrier()
		c.t.Sync()
		times[c.Rank()] = c.t.Now()
	})
	for r := 1; r < n; r++ {
		if times[r] != times[0] {
			t.Fatalf("clocks diverge after barrier: %v", times)
		}
	}
}

func TestBcast(t *testing.T) {
	n := 7
	got := make([]float64, n)
	runWorld(t, n, nil, func(c *Ctx) {
		v := -1.0
		if c.Rank() == 2 {
			v = 3.25
		}
		got[c.Rank()] = c.Bcast(2, 8, v).(float64)
	})
	for r, v := range got {
		if v != 3.25 {
			t.Fatalf("rank %d bcast value = %v", r, v)
		}
	}
}

func TestAllreduce(t *testing.T) {
	n := 9
	runWorld(t, n, nil, func(c *Ctx) {
		sum := c.AllreduceF64(Sum, float64(c.Rank()))
		if sum != float64(n*(n-1)/2) {
			t.Errorf("sum = %v", sum)
		}
		max := c.AllreduceF64(Max, float64(c.Rank()))
		if max != float64(n-1) {
			t.Errorf("max = %v", max)
		}
		min := c.AllreduceF64(Min, float64(c.Rank()+5))
		if min != 5 {
			t.Errorf("min = %v", min)
		}
	})
}

func TestGather(t *testing.T) {
	n := 5
	runWorld(t, n, nil, func(c *Ctx) {
		vals, isRoot := c.Gather(0, 8, float64(c.Rank()*c.Rank()))
		if c.Rank() == 0 {
			if !isRoot || len(vals) != n {
				t.Fatalf("gather root got %d values", len(vals))
			}
			for r, v := range vals {
				if v.(float64) != float64(r*r) {
					t.Errorf("gather[%d] = %v", r, v)
				}
			}
		} else if isRoot {
			t.Errorf("rank %d claims root", c.Rank())
		}
	})
}

func TestCollectiveMismatchPanics(t *testing.T) {
	s := des.NewScheduler(7)
	cfg := machine.MustNew("ibm-power3")
	place, _ := machine.Pack(cfg, 2)
	w := NewWorld(s, place)
	for r := 0; r < 2; r++ {
		r := r
		img := image.NewBuilder("t").Build()
		pr := proc.NewProcess(s, cfg, fmt.Sprintf("rank%d", r), r, 0, img)
		c := w.Register(r, nil, nil)
		pr.Start(func(th *proc.Thread) {
			c.t = th
			c.Init()
			if r == 0 {
				c.Barrier()
			} else {
				c.AllreduceF64(Sum, 1)
			}
		})
	}
	var pp *des.ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("mismatched collectives did not panic: Run returned %v", err)
	}
}

// countingHooks records wrapper activity.
type countingHooks struct {
	calls  []string
	sends  int
	recvs  int
	inited bool
	final  bool
}

func (h *countingHooks) Enter(c *Ctx, call string)           { h.calls = append(h.calls, "+"+call) }
func (h *countingHooks) Exit(c *Ctx, call string)            { h.calls = append(h.calls, "-"+call) }
func (h *countingHooks) MsgSend(c *Ctx, dst, tag, bytes int) { h.sends++ }
func (h *countingHooks) MsgRecv(c *Ctx, src, tag, bytes int) { h.recvs++ }
func (h *countingHooks) Initialized(c *Ctx)                  { h.inited = true }
func (h *countingHooks) Finalizing(c *Ctx)                   { h.final = true }

func TestWrapperHooks(t *testing.T) {
	hooks := make([]*countingHooks, 2)
	runWorld(t, 2, func(r int) Hooks {
		hooks[r] = &countingHooks{}
		return hooks[r]
	}, func(c *Ctx) {
		if c.Rank() == 0 {
			c.Send(1, 0, 8, nil)
		} else {
			c.Recv(0, 0)
		}
		c.Barrier()
	})
	for r, h := range hooks {
		if !h.inited || !h.final {
			t.Fatalf("rank %d hooks: inited=%v final=%v", r, h.inited, h.final)
		}
	}
	if hooks[0].sends != 1 || hooks[1].recvs != 1 {
		t.Fatalf("msg hooks: sends=%d recvs=%d", hooks[0].sends, hooks[1].recvs)
	}
	// Wrapper entry/exit must nest properly around MPI_Send and barrier.
	want := []string{"+MPI_Send", "-MPI_Send", "+MPI_Barrier", "-MPI_Barrier"}
	if fmt.Sprint(hooks[0].calls) != fmt.Sprint(want) {
		t.Fatalf("rank 0 wrapper calls = %v", hooks[0].calls)
	}
}

func TestWtimeMonotonic(t *testing.T) {
	runWorld(t, 2, nil, func(c *Ctx) {
		t0 := c.Wtime()
		c.t.Work(1_000_000)
		t1 := c.Wtime()
		if t1 <= t0 {
			t.Errorf("Wtime not monotonic: %v -> %v", t0, t1)
		}
	})
}

func TestCallsBeforeInitPanic(t *testing.T) {
	s := des.NewScheduler(7)
	cfg := machine.MustNew("ibm-power3")
	place, _ := machine.Pack(cfg, 2)
	w := NewWorld(s, place)
	img := image.NewBuilder("t").Build()
	pr := proc.NewProcess(s, cfg, "rank0", 0, 0, img)
	c := w.Register(0, nil, nil)
	pr.Start(func(th *proc.Thread) {
		c.t = th
		c.Send(1, 0, 8, nil) // no Init: must panic
	})
	var pp *des.ProcPanicError
	if err := s.Run(); !errors.As(err, &pp) {
		t.Errorf("Send before Init did not panic: Run returned %v", err)
	}
}

// Property: Allreduce(Sum) over arbitrary per-rank values equals the
// sequential sum, for arbitrary world sizes.
func TestAllreduceSumProperty(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		if len(raw) > 16 {
			raw = raw[:16]
		}
		n := len(raw)
		var want float64
		for _, v := range raw {
			want += float64(v)
		}
		ok := true
		runWorld(t, n, nil, func(c *Ctx) {
			got := c.AllreduceF64(Sum, float64(raw[c.Rank()]))
			if got != want {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicElapsed(t *testing.T) {
	run := func() des.Time {
		var e des.Time
		w := runWorld(t, 8, nil, func(c *Ctx) {
			for i := 0; i < 5; i++ {
				right := (c.Rank() + 1) % 8
				left := (c.Rank() + 7) % 8
				c.Sendrecv(right, i, 4096, nil, left, i)
				c.AllreduceF64(Max, float64(c.Rank()))
			}
		})
		for r := 0; r < 8; r++ {
			if el := w.Rank(r).MainElapsed(); el > e {
				e = el
			}
		}
		return e
	}
	if a, b := run(), run(); a != b {
		t.Fatalf("elapsed nondeterministic: %v vs %v", a, b)
	}
}
