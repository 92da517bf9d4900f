package guide

import (
	"fmt"

	"dynprof/internal/mpi"
	"dynprof/internal/proc"
	"dynprof/internal/tape"
)

// replayer drives one thread through its tape track in place of the
// application's code: every taped gate, Work, MPI call and parallel region
// is performed through the same live entry points the application used.
// Its gate body and region body are bound once, so a replayed gate
// allocates nothing.
type replayer struct {
	c     *Ctx
	tp    *tape.Tape
	track int
	t     *proc.Thread
	rd    tape.Reader
	body  func() // r.run(tape.Exit), the body of every replayed gate

	// MPI ranks: the posted receives not yet waited on, and how many
	// Irecvs have been replayed.
	pending []pendingRecv
	irecvs  int64

	// OpenMP master: the team's replayers by thread id (team[0] is the
	// master itself) and the region body handed to every Parallel.
	team   []*replayer
	region func(t *proc.Thread, id int)
}

// pendingRecv is one replayed Irecv awaiting its Wait.
type pendingRecv struct {
	seq      int64
	src, tag int64
	req      *mpi.Request
}

func newReplayer(c *Ctx, tp *tape.Tape, track int, t *proc.Thread) *replayer {
	r := &replayer{c: c, tp: tp, track: track, t: t, rd: tp.Reader(track)}
	r.body = func() { r.run(tape.Exit) }
	return r
}

// replayMain replays track of tp on the process whose context is c: an MPI
// rank's track, or the OpenMP master's with one replayer per team thread.
func replayMain(c *Ctx, tp *tape.Tape, track int) {
	r := newReplayer(c, tp, track, c.T)
	if c.OMP != nil {
		threads := c.T.Process().Threads()
		r.team = make([]*replayer, len(threads))
		r.team[0] = r
		for id := 1; id < len(threads); id++ {
			r.team[id] = newReplayer(c, tp, id, threads[id])
		}
		r.region = func(t *proc.Thread, id int) {
			tm := r.team[id]
			tm.t = t
			tm.run(tape.End)
		}
	}
	r.run(tape.EOF)
}

// fail stops the replay at op: continuing past a divergence would
// silently simulate a different program.
func (r *replayer) fail(at int, op tape.Op, format string, args ...any) {
	panic(&tape.MismatchError{Track: r.track, Offset: at, Op: op, Detail: fmt.Sprintf(format, args...)})
}

// run performs taped operations until the terminator closing the current
// scope: Exit for a gate body, End for a region body, EOF for main.
func (r *replayer) run(until tape.Kind) {
	for {
		at := r.rd.Offset()
		op := r.rd.Next()
		switch op.Kind {
		case until:
			return
		case tape.Work:
			r.t.Work(op.A)
		case tape.Enter:
			if op.A >= int64(len(r.c.syms)) {
				r.fail(at, op, "no function %d in %s", op.A, r.tp.App())
			}
			r.t.Call(r.c.syms[op.A], r.body)
		case tape.Parallel:
			name, ok := r.tp.Region(op.A)
			if !ok || r.region == nil {
				r.fail(at, op, "no parallel region to open here")
			}
			r.c.OMP.Parallel(r.t, name, r.region)
		case tape.Init, tape.Finalize, tape.Barrier, tape.Send, tape.Recv, tape.Irecv, tape.Wait, tape.Allreduce:
			r.mpiOp(at, op)
		default:
			r.fail(at, op, "expected %v", until)
		}
	}
}

// mpiOp performs one taped MPI call, checking every received message
// against the recording.
func (r *replayer) mpiOp(at int, op tape.Op) {
	m := r.c.MPI
	if m == nil {
		r.fail(at, op, "MPI call in a non-MPI process")
	}
	switch op.Kind {
	case tape.Init:
		m.Init()
	case tape.Finalize:
		m.Finalize()
	case tape.Barrier:
		m.Barrier()
	case tape.Send:
		m.Send(int(op.A), int(op.B), int(op.C), nil)
	case tape.Recv:
		got := m.Recv(int(op.A), int(op.B))
		r.check(at, op, got, op.A, op.B)
	case tape.Irecv:
		r.irecvs++
		r.pending = append(r.pending, pendingRecv{seq: r.irecvs, src: op.A, tag: op.B, req: m.Irecv(int(op.A), int(op.B))})
	case tape.Wait:
		seq := r.irecvs - op.A + 1
		i := 0
		for i < len(r.pending) && r.pending[i].seq != seq {
			i++
		}
		if i == len(r.pending) {
			r.fail(at, op, "no pending Irecv %d", seq)
		}
		p := r.pending[i]
		r.pending = append(r.pending[:i], r.pending[i+1:]...)
		r.check(at, op, m.Wait(p.req), p.src, p.tag)
	case tape.Allreduce:
		m.AllreduceF64(mpi.Op(op.A), 0)
	}
}

// check compares a received message with the taped source, tag and size.
func (r *replayer) check(at int, op tape.Op, got mpi.Message, src, tag int64) {
	if int64(got.Src) != src || int64(got.Tag) != tag || int64(got.Bytes) != op.C {
		r.fail(at, op, "received %d bytes from %d with tag %d, taped %d bytes from %d with tag %d",
			got.Bytes, got.Src, got.Tag, op.C, src, tag)
	}
}
