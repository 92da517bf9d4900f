package des

import (
	"fmt"
	"reflect"
	"testing"
)

// graphOp is one step of a Proc's program in a cast graph.
type graphOp struct {
	kind byte // 'a' Advance, 'c' Cast, 'r' Recv
	d    Time // Advance duration, or the Cast delay beyond the lookahead
	to   int  // Cast target Proc
}

// graphLook is the lookahead of every cluster a cast graph runs on; every
// Cast covers at least this much virtual time.
const graphLook = 5 * Microsecond

// castGraph decodes fuzz bytes into Proc programs free of deadlock: Proc i
// casts only to Procs after it, and receives at most as many values as
// the Procs before it cast to it, so Proc 0 never blocks and, by
// induction, every Recv is eventually served. Each program ends by
// receiving whatever is still owed to it, so every cast value is
// received. Durations are a few microseconds, so arrivals at equal
// instants are common.
func castGraph(data []byte) [][]graphOp {
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
	progs := make([][]graphOp, n)
	owed := make([]int, n) // values cast to each Proc so far
	for i := range progs {
		l, _ := next()
		recvd := 0
		for k := int(l % 12); k > 0; k-- {
			b, ok := next()
			if !ok {
				break
			}
			op := graphOp{kind: 'a', d: Time(b&7) * Microsecond}
			switch b >> 6 {
			case 2:
				if i+1 < n {
					op = graphOp{kind: 'c', d: Time(b&3) * Microsecond, to: i + 1 + int(b>>2&15)%(n-i-1)}
					owed[op.to]++
				}
			case 3:
				if recvd < owed[i] {
					op = graphOp{kind: 'r'}
					recvd++
				}
			}
			progs[i] = append(progs[i], op)
		}
		for ; recvd < owed[i]; recvd++ {
			progs[i] = append(progs[i], graphOp{kind: 'r'})
		}
	}
	return progs
}

// graphRun is what one execution of a cast graph observed.
type graphRun struct {
	finish   []Time  // each Proc's clock when its program ended
	received [][]int // the values each Proc received, in order
	executed uint64
}

// runGraph executes progs with Proc i on shard i mod shards of a fresh
// cluster (or, with shards 0, on a plain Scheduler driven by drive).
func runGraph(t *testing.T, progs [][]graphOp, shards, workers int, drive func(*Scheduler) error) graphRun {
	t.Helper()
	n := len(progs)
	run := graphRun{finish: make([]Time, n), received: make([][]int, n)}
	var c *Cluster
	var plain *Scheduler
	shard := func(i int) *Scheduler { return plain }
	if shards == 0 {
		plain = NewScheduler(3)
	} else {
		c = NewCluster(shards, graphLook, 3, WithHostParallelism(workers))
		shard = func(i int) *Scheduler { return c.Shard(i % shards) }
	}
	boxes := make([]*Mailbox, n)
	for i := range boxes {
		boxes[i] = NewMailbox(shard(i), fmt.Sprintf("box%d", i))
	}
	for i, prog := range progs {
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
				}
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
	if err != nil {
		t.Fatalf("cast graph %v on %d shards: %v", progs, shards, err)
	}
	return run
}

// FuzzClusterGraph runs random cast graphs on a plain Scheduler and on
// clusters. Invariants: a plain Scheduler gives the same finish times,
// received values and event count whether its Advances run in place or
// all park; a one-shard Cluster matches it in all three; k shards match
// one shard on every Proc's finish time (values cast at one instant from
// different shards may arrive in another order, which moves no clock);
// and a sharded run is identical at host parallelism 1 and 2.
func FuzzClusterGraph(f *testing.F) {
	f.Add([]byte{0, 6, 0x81, 0x02, 0x80, 0x03, 0x84, 0x01, 5, 0xc0, 0x01, 0xc0, 0x83, 0xc0})
	f.Add([]byte{3, 11, 0x80, 0x84, 0x88, 0x8c, 0x00, 0x07, 0x80, 0x81, 0x82, 0x83, 0x00,
		9, 0xc0, 0xc0, 0x01, 0x80, 0x84, 0x00, 0xc1, 0xc2, 0x02,
		7, 0xc3, 0xc0, 0x80, 0x06, 0xc0, 0xc0, 0x01})
	f.Add([]byte{4, 3, 0, 0, 0, 3, 1, 1, 1, 2, 0x80, 0x80, 1, 0xc0, 4, 0xc0, 0xc0, 0x00, 0x00})
	f.Fuzz(func(t *testing.T, data []byte) {
		progs := castGraph(data)
		serial := runGraph(t, progs, 0, 0, (*Scheduler).Run)
		if ref := runGraph(t, progs, 0, 0, parked); !reflect.DeepEqual(serial, ref) {
			t.Fatalf("in-place Advances diverge from parking:\n got  %+v\n want %+v\n graph %v", serial, ref, progs)
		}
		if one := runGraph(t, progs, 1, 1, nil); !reflect.DeepEqual(one, serial) {
			t.Fatalf("one-shard cluster diverges from a Scheduler:\n got  %+v\n want %+v\n graph %v", one, serial, progs)
		}
		for k := 2; k <= 3; k++ {
			sharded := runGraph(t, progs, k, 1, nil)
			if !reflect.DeepEqual(sharded.finish, serial.finish) {
				t.Fatalf("%d shards: finish times %v, one shard %v\n graph %v", k, sharded.finish, serial.finish, progs)
			}
			if par := runGraph(t, progs, k, 2, nil); !reflect.DeepEqual(par, sharded) {
				t.Fatalf("%d shards: host parallelism 2 gives %+v, 1 gives %+v\n graph %v", k, par, sharded, progs)
			}
		}
	})
}
