package des

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
)

// graphOp is one step of a Proc's program in a cast graph.
type graphOp struct {
	kind byte // 'a' Advance, 'c' Cast, 'r' Recv, 't' RecvTimeout, 'p' panic
	d    Time // Advance duration, the Cast delay beyond the lookahead, or the timeout
	to   int  // Cast target Proc, or the panic value
}

// graphLook is the lookahead of every cluster a cast graph runs on; every
// Cast covers at least this much virtual time.
const graphLook = 5 * Microsecond

// graph is a decoded cast graph: each Proc's program, the number of
// values cast to each Proc, and the budget every run of it carries.
type graph struct {
	progs  [][]graphOp
	owed   []int
	budget Budget
}

// castGraph decodes fuzz bytes into Proc programs free of deadlock: Proc i
// casts only to Procs after it, and its Recvs never need more values than
// the Procs before it cast to it (a RecvTimeout may take one), so Proc 0
// never blocks and, by induction, every Recv is eventually served. After
// its program each Proc receives whatever is still owed to it, so every
// cast value is received; a RecvTimeout that timed out took nothing and
// leaves one more for that final drain. Durations are a few microseconds,
// so arrivals at equal instants are common. A byte left after the
// programs may set a MaxEvents or MaxVirtual budget.
func castGraph(data []byte) graph {
	next := func() (byte, bool) {
		if len(data) == 0 {
			return 0, false
		}
		b := data[0]
		data = data[1:]
		return b, true
	}
	b, _ := next()
	n := 2 + int(b%5)
	g := graph{progs: make([][]graphOp, n), owed: make([]int, n)}
	for i := range g.progs {
		l, _ := next()
		recvs := 0 // Recvs and RecvTimeouts so far
		for k := int(l % 12); k > 0; k-- {
			b, ok := next()
			if !ok {
				break
			}
			op := graphOp{kind: 'a', d: Time(b&7) * Microsecond}
			switch b >> 6 {
			case 1:
				switch b >> 3 & 7 {
				case 4, 5:
					op.kind = 't'
					recvs++
				case 7:
					op = graphOp{kind: 'p', to: int(b & 7)}
				}
			case 2:
				if i+1 < n {
					op = graphOp{kind: 'c', d: Time(b&3) * Microsecond, to: i + 1 + int(b>>2&15)%(n-i-1)}
					g.owed[op.to]++
				}
			case 3:
				if recvs < g.owed[i] {
					op = graphOp{kind: 'r'}
					recvs++
				}
			}
			g.progs[i] = append(g.progs[i], op)
		}
	}
	if b, ok := next(); ok {
		switch b & 3 {
		case 1:
			g.budget.MaxEvents = uint64(b>>2) + 1
		case 2:
			g.budget.MaxVirtual = Time(b>>2+1) * Microsecond
		}
	}
	return g
}

// timeouts reports whether any Proc of g receives with a timeout.
func (g graph) timeouts() bool {
	for _, prog := range g.progs {
		for _, op := range prog {
			if op.kind == 't' {
				return true
			}
		}
	}
	return false
}

// graphPanic is the part of a *ProcPanicError two runs must agree on; the
// stack differs between runs.
type graphPanic struct {
	proc  string
	value any
}

// graphRun is what one execution of a cast graph observed.
type graphRun struct {
	finish   []Time  // each Proc's clock when its program ended
	received [][]int // the values each Proc received, in order
	executed uint64
	failure  any // nil, a graphPanic or a LivelockError
}

// runGraph executes g with Proc i on shard i mod shards of a fresh
// cluster (or, with shards 0, on a plain Scheduler driven by drive).
func runGraph(t *testing.T, g graph, shards, workers int, drive func(*Scheduler) error) graphRun {
	t.Helper()
	n := len(g.progs)
	run := graphRun{finish: make([]Time, n), received: make([][]int, n)}
	var c *Cluster
	var plain *Scheduler
	shard := func(i int) *Scheduler { return plain }
	if shards == 0 {
		plain = NewScheduler(3, WithBudget(g.budget))
	} else {
		c = NewCluster(shards, graphLook, 3, WithHostParallelism(workers), WithClusterBudget(g.budget))
		shard = func(i int) *Scheduler { return c.Shard(i % shards) }
	}
	boxes := make([]*Mailbox, n)
	for i := range boxes {
		boxes[i] = NewMailbox(shard(i), fmt.Sprintf("box%d", i))
	}
	for i, prog := range g.progs {
		s := shard(i)
		s.Spawn(fmt.Sprintf("p%d", i), func(p *Proc) {
			for k, op := range prog {
				switch op.kind {
				case 'a':
					p.Advance(op.d)
				case 'c':
					box, v := boxes[op.to], 100*i+k
					s.Cast(shard(op.to).ShardID(), graphLook+op.d, func() { box.Put(v) })
				case 'r':
					run.received[i] = append(run.received[i], p.Recv(boxes[i]).(int))
				case 't':
					if v, ok := p.RecvTimeout(boxes[i], op.d); ok {
						run.received[i] = append(run.received[i], v.(int))
					}
				case 'p':
					panic(op.to)
				}
			}
			for len(run.received[i]) < g.owed[i] {
				run.received[i] = append(run.received[i], p.Recv(boxes[i]).(int))
			}
			run.finish[i] = p.Now()
		})
	}
	var err error
	if c != nil {
		err = c.Run()
		run.executed = c.Executed()
	} else {
		err = drive(plain)
		run.executed = plain.Executed()
	}
	var pp *ProcPanicError
	var ll *LivelockError
	switch {
	case err == nil:
	case errors.As(err, &pp):
		run.failure = graphPanic{pp.Proc, pp.Value}
	case errors.As(err, &ll):
		run.failure = *ll
	default:
		t.Fatalf("cast graph %+v on %d shards: %v", g, shards, err)
	}
	return run
}

// FuzzClusterGraph runs random cast graphs on a plain Scheduler and on
// clusters. Invariants: a plain Scheduler gives the same finish times,
// received values, event count and error — the panicking Proc and its
// value, or the budget's *LivelockError — whether its Advances run in
// place or all park; a one-shard Cluster matches it in all four; when the
// Scheduler's run ends cleanly, k shards end cleanly too, with one shard's
// finish time for every Proc (values cast at one instant from different
// shards may arrive in another order, which moves no clock; a
// RecvTimeout whose deadline ties with a cast's arrival is such an order,
// and it does move the clock, so graphs with RecvTimeouts are left out of
// this one, as are MaxEvents budgets: such an order may park a receiver
// once more, which costs an event); and a sharded run, error included, is
// identical at host parallelism 1 and 2.
func FuzzClusterGraph(f *testing.F) {
	f.Add([]byte{0, 6, 0x81, 0x02, 0x80, 0x03, 0x84, 0x01, 5, 0xc0, 0x01, 0xc0, 0x83, 0xc0})
	f.Add([]byte{3, 11, 0x80, 0x84, 0x88, 0x8c, 0x00, 0x07, 0x80, 0x81, 0x82, 0x83, 0x00,
		9, 0xc0, 0xc0, 0x01, 0x80, 0x84, 0x00, 0xc1, 0xc2, 0x02,
		7, 0xc3, 0xc0, 0x80, 0x06, 0xc0, 0xc0, 0x01})
	f.Add([]byte{4, 3, 0, 0, 0, 3, 1, 1, 1, 2, 0x80, 0x80, 1, 0xc0, 4, 0xc0, 0xc0, 0x00, 0x00})
	// A Proc panics mid-program while the others still advance and wait.
	f.Add([]byte{1, 4, 0x81, 0x02, 0x7b, 0x01, 3, 0x02, 0x01, 0x03, 2, 0xc0, 0x01})
	// RecvTimeouts: one times out before the cast arrives, one takes it.
	f.Add([]byte{0, 3, 0x80, 0x05, 0x80, 4, 0x61, 0x67, 0x60, 0x01})
	// A MaxEvents budget that trips mid-run.
	f.Add([]byte{0, 6, 0x81, 0x02, 0x80, 0x03, 0x84, 0x01, 5, 0xc0, 0x01, 0xc0, 0x83, 0xc0, 0x1d})
	// A MaxVirtual budget that trips mid-run.
	f.Add([]byte{0, 6, 0x81, 0x02, 0x80, 0x03, 0x84, 0x01, 5, 0xc0, 0x01, 0xc0, 0x83, 0xc0, 0x1e})
	f.Fuzz(func(t *testing.T, data []byte) {
		g := castGraph(data)
		serial := runGraph(t, g, 0, 0, (*Scheduler).Run)
		if ref := runGraph(t, g, 0, 0, parked); !reflect.DeepEqual(serial, ref) {
			t.Fatalf("in-place Advances diverge from parking:\n got  %+v\n want %+v\n graph %+v", serial, ref, g)
		}
		if one := runGraph(t, g, 1, 1, nil); !reflect.DeepEqual(one, serial) {
			t.Fatalf("one-shard cluster diverges from a Scheduler:\n got  %+v\n want %+v\n graph %+v", one, serial, g)
		}
		for k := 2; k <= 3; k++ {
			sharded := runGraph(t, g, k, 1, nil)
			if serial.failure == nil && !g.timeouts() && g.budget.MaxEvents == 0 &&
				(sharded.failure != nil || !reflect.DeepEqual(sharded.finish, serial.finish)) {
				t.Fatalf("%d shards: finish times %v (%v), one shard %v\n graph %+v", k, sharded.finish, sharded.failure, serial.finish, g)
			}
			if par := runGraph(t, g, k, 2, nil); !reflect.DeepEqual(par, sharded) {
				t.Fatalf("%d shards: host parallelism 2 gives %+v, 1 gives %+v\n graph %+v", k, par, sharded, g)
			}
		}
	})
}
