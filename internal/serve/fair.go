// Package serve implements the multi-tenant dynprof session server: a
// persistent registry of simulated jobs that many concurrent tool sessions
// instrument at once. It layers three policies over the single-tool core:
// admission control (sessions past a concurrency limit queue or are
// rejected), per-session quotas (probes, trace bytes, control-op rate), and
// round-robin scheduling of daemon service time so one chatty
// tenant cannot starve the others — the shared-daemon economics ScALPEL
// argues for, applied to the paper's per-node super/comm daemon structure.
package serve

import "dynprof/internal/des"

// FairSched arbitrates communication-daemon service time between the users
// sharing each node, in virtual time. It implements dpcl.ServeGate: every
// costed daemon-side action on a node passes through one per-node lane,
// and when the lane is contended, waiting requests are served in
// round-robin order over users, one request per turn. Within a user,
// requests stay FIFO.
//
// In steady state Serve allocates nothing: gates and user queues are
// recycled through free lists, and the rotation is rotated in place.
type FairSched struct {
	lanes map[int]*lane
	gates []*des.Gate  // closed gates ready for reuse
	spare []*userQueue // retired, empty user queues ready for reuse
}

// lane is one node's service queue. A user has an entry in q exactly while
// it has queued requests, and then exactly one slot in rr. A user whose
// queue drains loses its entry at once but keeps its drained slot in the
// rotation until pick retires it at the head: a user who re-enqueues
// before then is served from that slot, keeping its place.
type lane struct {
	busy bool
	rr   []*userQueue          // round-robin order of user slots
	q    map[string]*userQueue // the slot of each user with queued work
}

// userQueue is one user's FIFO of waiting requests on a lane.
type userQueue struct {
	user  string
	gates []*des.Gate
}

// NewFairSched creates a scheduler.
func NewFairSched() *FairSched {
	return &FairSched{lanes: make(map[int]*lane)}
}

func (f *FairSched) lane(node int) *lane {
	ln, ok := f.lanes[node]
	if !ok {
		ln = &lane{q: make(map[string]*userQueue)}
		f.lanes[node] = ln
	}
	return ln
}

// Serve implements dpcl.ServeGate: it spends cost of daemon time on node
// on behalf of user, waiting for the lane when other users hold it. p is
// the serving daemon's Proc.
func (f *FairSched) Serve(p *des.Proc, node int, user, kind string, cost des.Time) {
	ln := f.lane(node)
	if ln.busy {
		g := f.gate()
		f.enqueue(ln, user, g)
		p.Await(g)
		g.Set(false) // pick has dequeued it; nobody else holds it now
		f.gates = append(f.gates, g)
	} else {
		ln.busy = true
	}
	p.Advance(cost)
	f.pick(ln)
}

// gate takes a closed gate from the free list.
func (f *FairSched) gate() *des.Gate {
	n := len(f.gates)
	if n == 0 {
		return des.NewGate("fair", false)
	}
	g := f.gates[n-1]
	f.gates[n-1] = nil
	f.gates = f.gates[:n-1]
	return g
}

func (f *FairSched) enqueue(ln *lane, user string, g *des.Gate) {
	uq := ln.q[user]
	if uq == nil {
		uq = ln.drainedSlot(user)
		if uq == nil {
			uq = f.newQueue(user)
			ln.rr = append(ln.rr, uq)
		}
		ln.q[user] = uq
	}
	uq.gates = append(uq.gates, g)
}

// drainedSlot finds user's drained slot in the rotation, if pick has not
// retired it yet. The caller has checked that user has no queued work.
func (ln *lane) drainedSlot(user string) *userQueue {
	for _, uq := range ln.rr {
		if uq.user == user {
			return uq
		}
	}
	return nil
}

// newQueue takes an empty user queue from the free list.
func (f *FairSched) newQueue(user string) *userQueue {
	var uq *userQueue
	if n := len(f.spare); n > 0 {
		uq = f.spare[n-1]
		f.spare[n-1] = nil
		f.spare = f.spare[:n-1]
	} else {
		uq = &userQueue{}
	}
	uq.user = user
	return uq
}

// pick hands the lane to the next request in round-robin order, or marks
// it idle.
func (f *FairSched) pick(ln *lane) {
	for len(ln.rr) > 0 {
		head := ln.rr[0]
		if len(head.gates) == 0 {
			// Drained slot: retire it from the rotation.
			ln.rr = popFront(ln.rr)
			head.user = ""
			f.spare = append(f.spare, head)
			continue
		}
		g := head.gates[0]
		head.gates = popFront(head.gates)
		if len(head.gates) == 0 {
			delete(ln.q, head.user)
		}
		if n := len(ln.rr); n > 1 {
			// Turn taken: rotate the user to the back of the ring.
			copy(ln.rr, ln.rr[1:])
			ln.rr[n-1] = head
		}
		g.Set(true) // the woken request Advances, then picks again
		return
	}
	ln.busy = false
}

// popFront drops s[0], shifting the rest down so the slice keeps its
// capacity.
func popFront[T any](s []T) []T {
	n := copy(s, s[1:])
	var zero T
	s[n] = zero
	return s[:n]
}
