package mpi

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/proc"
	"dynprof/internal/tape"
)

// Op is a reduction operator.
type Op int

// Reduction operators.
const (
	Sum Op = iota
	Max
	Min
)

func (o Op) combine(a, b float64) float64 {
	switch o {
	case Sum:
		return a + b
	case Max:
		if a > b {
			return a
		}
		return b
	case Min:
		if a < b {
			return a
		}
		return b
	default:
		panic(fmt.Sprintf("mpi: unknown reduction op %d", o))
	}
}

// accumulateF64 folds the present ranks' scalar contributions in rank
// order. With every rank present this is exactly the pre-fault
// contrib[0]-seeded loop; under degradation dead ranks simply contribute
// nothing.
func accumulateF64(op *collectiveOp, o Op) float64 {
	acc, seeded := 0.0, false
	for i := 0; i < op.n; i++ {
		if !op.present[i] {
			continue
		}
		v := op.contrib[i].(float64)
		if !seeded {
			acc, seeded = v, true
			continue
		}
		acc = o.combine(acc, v)
	}
	return acc
}

// Ctx is one rank's handle on the MPI world. All methods must be called
// from the rank's own thread.
type Ctx struct {
	w     *World
	rank  int
	t     *proc.Thread
	hooks Hooks

	collCount   int
	irecvs      uint32 // application Irecvs posted, numbering their requests
	initialized bool
	finalized   bool
	dead        bool

	initDone      des.Time
	suspAtInit    des.Time
	finalizeStart des.Time
	suspAtFinal   des.Time
}

// Rank reports this rank's index in the world.
func (c *Ctx) Rank() int { return c.rank }

// Size reports the number of ranks.
func (c *Ctx) Size() int { return c.w.Size() }

// Thread returns the rank's executing thread.
func (c *Ctx) Thread() *proc.Thread { return c.t }

// World returns the MPI world this rank belongs to.
func (c *Ctx) World() *World { return c.w }

// Initialized reports whether Init has completed on this rank.
func (c *Ctx) Initialized() bool { return c.initialized }

// Dead reports whether this rank was crashed by a fault. A dead rank has
// no meaningful MainElapsed; job-level aggregation skips it.
func (c *Ctx) Dead() bool { return c.dead }

// Wtime reports the rank's precise virtual clock in seconds, mirroring
// MPI_Wtime.
func (c *Ctx) Wtime() float64 { return c.t.Now().Seconds() }

// wrap brackets an MPI call with the wrapper hooks. The call's body is
// runtime work, so the thread's tape is muted across it.
func (c *Ctx) wrap(call string, fn func()) {
	c.t.Mute()
	if c.hooks != nil {
		c.hooks.Enter(c, call)
	}
	fn()
	if c.hooks != nil {
		c.hooks.Exit(c, call)
	}
	c.t.Unmute()
}

// record appends op to the rank's tape when the application itself made
// the call (see proc.Thread.Tape).
func (c *Ctx) record(op tape.Op) {
	if tr := c.t.Tape(); tr != nil {
		tr.Append(op)
	}
}

// unrecordable marks a recording unreplayable when the application itself
// makes a call outside the tape's vocabulary.
func (c *Ctx) unrecordable(call string) {
	if tr := c.t.Tape(); tr != nil {
		tr.Unsupported(call)
	}
}

// gateCall routes an MPI runtime call through the image's call gate when
// the binary carries a symbol for it (so a dynamic instrumenter can patch
// its probe points — the paper patches the end of MPI_Init), and falls
// back to a plain call otherwise.
func (c *Ctx) gateCall(name string, body func()) {
	if sym, ok := c.t.Process().Image().Lookup(name); ok {
		c.t.Call(sym, body)
		return
	}
	body()
}

// initStartupCycles models per-rank MPI/POE startup work inside MPI_Init.
const initStartupCycles = 2_000_000

// Init performs MPI_Init: per-rank startup work, initialisation of the
// tracing library (via the Initialized hook, as Vampirtrace does inside
// the MPI_Init wrapper), and a world-wide synchronisation. The call runs
// through the image call gate so that probes patched into the MPI_Init
// symbol — the paper's Figure 6 callback — execute at its exit.
func (c *Ctx) Init() {
	if c.initialized {
		panic(fmt.Sprintf("mpi: rank %d called Init twice", c.rank))
	}
	c.record(tape.Op{Kind: tape.Init})
	c.t.Mute()
	defer c.t.Unmute()
	c.gateCall("MPI_Init", func() {
		c.t.Work(initStartupCycles)
		c.initialized = true
		if c.hooks != nil {
			c.hooks.Initialized(c)
		}
		c.enterCollective("init", 0, 0, nil, func(op *collectiveOp, w *World) {
			floor := op.maxArrival() + w.hopCost(0)*des.Time(logCeil(op.n))
			for i := range op.depart {
				op.depart[i] = floor
			}
		})
	})
	c.initDone = c.t.Now()
	c.suspAtInit = c.t.SuspendedTime()
}

// Finalize performs MPI_Finalize: flush tracing (Finalizing hook), then a
// final synchronisation.
func (c *Ctx) Finalize() {
	c.ensureInit("MPI_Finalize")
	c.finalizeStart = c.t.Now()
	c.suspAtFinal = c.t.SuspendedTime()
	c.record(tape.Op{Kind: tape.Finalize})
	c.t.Mute()
	defer c.t.Unmute()
	c.gateCall("MPI_Finalize", func() {
		if c.hooks != nil {
			c.hooks.Finalizing(c)
		}
		c.enterCollective("finalize", 0, 0, nil, func(op *collectiveOp, w *World) {
			floor := op.maxArrival() + w.hopCost(0)*des.Time(logCeil(op.n))
			for i := range op.depart {
				op.depart[i] = floor
			}
		})
		c.finalized = true
	})
}

// MainElapsed reports the virtual time this rank spent between the end of
// MPI_Init and the start of MPI_Finalize, excluding intervals in which the
// process was suspended by an instrumenter — the paper's reported program
// time ("the target program is suspended during insertion of
// instrumentation", whose cost is excluded).
func (c *Ctx) MainElapsed() des.Time {
	if !c.finalized {
		panic(fmt.Sprintf("mpi: rank %d MainElapsed before Finalize", c.rank))
	}
	return (c.finalizeStart - c.initDone) - (c.suspAtFinal - c.suspAtInit)
}

func (c *Ctx) ensureInit(call string) {
	if !c.initialized {
		panic(fmt.Sprintf("mpi: rank %d called %s before MPI_Init", c.rank, call))
	}
	if c.finalized {
		panic(fmt.Sprintf("mpi: rank %d called %s after MPI_Finalize", c.rank, call))
	}
}

// Send performs a standard-mode (eager) send of bytes with an opaque
// payload. The payload must not be mutated afterwards; use CopyF64s for
// numeric buffers.
func (c *Ctx) Send(dst, tag, bytes int, payload any) {
	c.ensureInit("MPI_Send")
	c.record(tape.Op{Kind: tape.Send, A: int64(dst), B: int64(tag), C: int64(bytes)})
	c.wrap("MPI_Send", func() { c.send(dst, tag, bytes, payload) })
}

// Recv blocks until a message matching src/tag (AnySource/AnyTag allowed)
// arrives, and returns it.
func (c *Ctx) Recv(src, tag int) Message {
	c.ensureInit("MPI_Recv")
	if src == AnySource || tag == AnyTag {
		c.unrecordable("wildcard MPI_Recv")
	}
	var m Message
	c.wrap("MPI_Recv", func() { m = c.recvCommon(src, tag) })
	c.record(tape.Op{Kind: tape.Recv, A: int64(m.Src), B: int64(m.Tag), C: int64(m.Bytes)})
	return m
}

// Sendrecv posts the receive, performs the send, then completes the
// receive — the deadlock-free exchange the kernels' ghost swaps use.
func (c *Ctx) Sendrecv(dst, sendTag, bytes int, payload any, src, recvTag int) Message {
	c.ensureInit("MPI_Sendrecv")
	c.unrecordable("MPI_Sendrecv")
	var m Message
	c.wrap("MPI_Sendrecv", func() {
		req := c.irecv(src, recvTag)
		c.send(dst, sendTag, bytes, payload)
		m = c.wait(req)
	})
	return m
}

// Irecv posts a non-blocking receive.
func (c *Ctx) Irecv(src, tag int) *Request {
	c.ensureInit("MPI_Irecv")
	if src == AnySource || tag == AnyTag {
		c.unrecordable("wildcard MPI_Irecv")
	}
	c.record(tape.Op{Kind: tape.Irecv, A: int64(src), B: int64(tag)})
	var r *Request
	c.wrap("MPI_Irecv", func() { r = c.irecv(src, tag) })
	c.irecvs++
	r.seq = c.irecvs
	return r
}

func (c *Ctx) irecv(src, tag int) *Request {
	rw := &recvWait{src: src, tag: tag, gate: des.NewGate(fmt.Sprintf("irecv@%d", c.rank), false)}
	if m := c.w.postRecv(c.rank, rw); m != nil {
		rw.got = m
		rw.gate.Set(true)
	} else {
		c.w.maybeArmRecv(c.rank, rw)
	}
	return &Request{c: c, rw: rw}
}

// Wait blocks until the request completes and returns the received message.
func (c *Ctx) Wait(r *Request) Message {
	c.ensureInit("MPI_Wait")
	var m Message
	c.wrap("MPI_Wait", func() { m = c.wait(r) })
	c.record(tape.Op{Kind: tape.Wait, A: int64(c.irecvs - r.seq + 1), C: int64(m.Bytes)})
	return m
}

func (c *Ctx) wait(r *Request) Message {
	if r.c != c {
		panic("mpi: waiting on another rank's request")
	}
	if r.done {
		return r.msg
	}
	c.t.Sync()
	if !r.rw.gate.Open() {
		c.t.Block(func(p *des.Proc) { p.Await(r.rw.gate) })
	}
	c.t.WorkTime(c.w.cfg.Net.RecvOverhead)
	if c.hooks != nil {
		c.hooks.MsgRecv(c, r.rw.got.Src, r.rw.got.Tag, r.rw.got.Bytes)
	}
	r.msg = r.rw.got.Message
	r.done = true
	return r.msg
}

// Barrier synchronises all ranks, releasing everyone log2(P) hops after
// the last arrival.
func (c *Ctx) Barrier() {
	c.ensureInit("MPI_Barrier")
	c.record(tape.Op{Kind: tape.Barrier})
	c.wrap("MPI_Barrier", func() {
		c.enterCollective("barrier", 0, 0, nil, func(op *collectiveOp, w *World) {
			floor := op.maxArrival() + w.hopCost(0)*des.Time(logCeil(op.n))
			for i := range op.depart {
				op.depart[i] = floor
			}
		})
	})
}

// Bcast broadcasts root's value (bytes long on the wire) to every rank and
// returns it. Non-root ranks pass their placeholder (ignored).
func (c *Ctx) Bcast(root, bytes int, val any) any {
	c.ensureInit("MPI_Bcast")
	c.unrecordable("MPI_Bcast")
	var out any
	c.wrap("MPI_Bcast", func() {
		out = c.enterCollective("bcast", root, bytes, val, func(op *collectiveOp, w *World) {
			// A dead root has nothing to broadcast: survivors get a nil
			// payload, timed from the last present arrival.
			start := op.arrival[op.root]
			var payload any
			if op.present[op.root] {
				payload = op.contrib[op.root]
			} else {
				start = op.maxArrival()
			}
			hop := w.hopCost(op.bytes)
			for i := range op.depart {
				d := start + des.Time(treeDepth((i-op.root+op.n)%op.n, op.n))*hop
				if op.arrival[i] > d {
					d = op.arrival[i]
				}
				op.depart[i] = d
				op.results[i] = payload
			}
		})
	})
	return out
}

// AllreduceF64 reduces each rank's v with op and returns the result on
// every rank.
func (c *Ctx) AllreduceF64(o Op, v float64) float64 {
	c.ensureInit("MPI_Allreduce")
	c.record(tape.Op{Kind: tape.Allreduce, A: int64(o)})
	var out any
	c.wrap("MPI_Allreduce", func() {
		out = c.enterCollective("allreduce", 0, 8, v, func(op *collectiveOp, w *World) {
			acc := accumulateF64(op, o)
			floor := op.maxArrival() + 2*des.Time(logCeil(op.n))*w.hopCost(op.bytes)
			for i := range op.depart {
				op.depart[i] = floor
				op.results[i] = acc
			}
		})
	})
	return out.(float64)
}

// Gather collects every rank's value at root (bytes is the per-rank wire
// size). ok reports whether the caller is the root; the root receives the
// values indexed by rank.
func (c *Ctx) Gather(root, bytes int, v any) (vals []any, ok bool) {
	c.ensureInit("MPI_Gather")
	c.unrecordable("MPI_Gather")
	var out any
	c.wrap("MPI_Gather", func() {
		out = c.enterCollective("gather", root, bytes, v, func(op *collectiveOp, w *World) {
			hop := w.hopCost(op.bytes)
			// The root drains P-1 messages: a tree of log P levels plus a
			// linear per-message receive overhead term.
			rootDep := op.maxArrival() + des.Time(logCeil(op.n))*hop +
				des.Time(op.n-1)*w.cfg.Net.RecvOverhead
			for i := range op.depart {
				if i == op.root {
					op.depart[i] = rootDep
					op.results[i] = append([]any(nil), op.contrib...)
				} else {
					op.depart[i] = op.arrival[i] + hop
					op.results[i] = nil
				}
			}
		})
	})
	if c.rank == root {
		return out.([]any), true
	}
	return nil, false
}

// CopyF64s returns a fresh copy of v — the payload-safety helper for
// sending numeric buffers between simulated address spaces.
func CopyF64s(v []float64) []float64 {
	out := make([]float64, len(v))
	copy(out, v)
	return out
}
