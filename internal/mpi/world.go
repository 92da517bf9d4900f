// Package mpi implements a simulated Message Passing Interface runtime on
// top of the discrete-event kernel: enough of MPI-1 for the paper's ASCI
// kernels — Init/Finalize, blocking and non-blocking point-to-point,
// Sendrecv, Barrier, Bcast, Reduce, Allreduce, Gather — with a LogGP-style
// cost model and a PMPI-like wrapper-hook interface that the Vampirtrace
// library attaches to.
package mpi

import (
	"fmt"
	"math/bits"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
)

// AnySource matches a message from any rank.
const AnySource = -1

// AnyTag matches a message with any tag.
const AnyTag = -1

// Hooks is the MPI wrapper interface: the mechanism Vampirtrace uses to
// observe MPI activity ("the Vampirtrace library collects MPI trace
// information by using the MPI wrapper interface"). All methods are called
// on the rank's own thread. A nil Hooks disables tracing.
type Hooks interface {
	// Enter is called at the top of each MPI wrapper, e.g. "MPI_Send".
	Enter(c *Ctx, call string)
	// Exit is called at the bottom of each MPI wrapper.
	Exit(c *Ctx, call string)
	// MsgSend records an outgoing message.
	MsgSend(c *Ctx, dst, tag, bytes int)
	// MsgRecv records a completed receive.
	MsgRecv(c *Ctx, src, tag, bytes int)
	// Initialized is called inside MPI_Init once the rank is set up —
	// the point where Vampirtrace initialises its own data structures.
	Initialized(c *Ctx)
	// Finalizing is called inside MPI_Finalize before teardown — the
	// point where Vampirtrace flushes its trace buffers.
	Finalizing(c *Ctx)
}

// World is a simulated MPI job: a set of ranks placed on the machine.
type World struct {
	s     *des.Scheduler
	place *machine.Placement
	cfg   *machine.Config
	ranks []*Ctx

	boxes []*rankBox

	colls map[int]*collectiveOp // keyed by collective sequence number

	// dead marks crashed ranks; deadCount is their number. Collectives
	// whose only missing parties are dead degrade after the detection
	// timeout instead of hanging the DES.
	dead      []bool
	deadCount int
	inj       *fault.Injector
}

// NewWorld creates an MPI world for len(place) ranks on the placement's
// machine. Ranks must be registered with Register before use.
func NewWorld(s *des.Scheduler, place *machine.Placement) *World {
	n := place.Size()
	w := &World{
		s:     s,
		place: place,
		cfg:   place.Config(),
		ranks: make([]*Ctx, n),
		boxes: make([]*rankBox, n),
		colls: make(map[int]*collectiveOp),
	}
	for i := range w.boxes {
		w.boxes[i] = &rankBox{}
	}
	w.dead = make([]bool, n)
	return w
}

// SetFaults attaches the run's fault injector so degradation decisions
// are logged as structured events. Optional; a nil injector just mutes
// the log.
func (w *World) SetFaults(inj *fault.Injector) { w.inj = inj }

// MarkDead declares rank r crashed: it will never arrive at another
// collective. Pending collectives whose remaining parties are all dead
// are armed for timeout degradation. Must be called from event context
// (the crash event itself).
func (w *World) MarkDead(r int) {
	if r < 0 || r >= len(w.dead) || w.dead[r] {
		return
	}
	w.dead[r] = true
	w.deadCount++
	if c := w.ranks[r]; c != nil {
		c.dead = true
	}
	w.checkDegrade()
	// Receives already posted against the crashed rank will never be
	// satisfied; arm their timeout release now.
	for dst, box := range w.boxes {
		for _, rw := range box.recvs {
			if rw.src == r {
				w.maybeArmRecv(dst, rw)
			}
		}
	}
}

// Dead reports whether rank r has been marked crashed.
func (w *World) Dead(r int) bool { return r >= 0 && r < len(w.dead) && w.dead[r] }

// detectTimeout is how long survivors wait for missing collective parties
// before degrading.
func (w *World) detectTimeout() des.Time { return w.cfg.FaultPlan().Timeout() }

// checkDegrade arms timeout degradation on every pending collective that
// can no longer complete normally. Iteration is seq-sorted so arming
// order (and hence event order) is deterministic.
func (w *World) checkDegrade() {
	if w.deadCount == 0 || len(w.colls) == 0 {
		return
	}
	seqs := make([]int, 0, len(w.colls))
	for seq := range w.colls {
		seqs = append(seqs, seq)
	}
	sort.Ints(seqs)
	for _, seq := range seqs {
		w.maybeArm(w.colls[seq])
	}
}

// maybeArm schedules degradation for op if at least one rank is waiting
// in it and every missing rank is dead. The timeout models the survivors'
// failure detector; if the op somehow completes or is replaced before the
// timer fires, the fire is a no-op.
func (w *World) maybeArm(op *collectiveOp) {
	if op.armed || op.arrived == 0 {
		return
	}
	for i := 0; i < op.n; i++ {
		if !op.present[i] && !w.dead[i] {
			return
		}
	}
	op.armed = true
	seq := op.seq
	w.s.After(w.detectTimeout(), func() {
		cur, ok := w.colls[seq]
		if !ok || cur != op {
			return
		}
		w.degrade(op)
	})
}

// degrade completes a collective without its dead parties: the finish
// closure prices and computes results over the present ranks only, and
// the gate releases the survivors.
func (w *World) degrade(op *collectiveOp) {
	w.inj.Record(w.s.Now(), fault.KindDegrade, -1, -1,
		fmt.Sprintf("%s seq %d released with %d/%d ranks", op.kind, op.seq, op.arrived, op.n))
	op.finish(op, w)
	delete(w.colls, op.seq)
	op.gate.Set(true)
}

// Size reports the number of ranks in the world.
func (w *World) Size() int { return w.place.Size() }

// Register binds rank r to its executing thread and tracing hooks,
// returning the rank's MPI context. Each rank must be registered exactly
// once, before the application calls Init.
func (w *World) Register(r int, t *proc.Thread, hooks Hooks) *Ctx {
	if r < 0 || r >= len(w.ranks) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", r, len(w.ranks)))
	}
	if w.ranks[r] != nil {
		panic(fmt.Sprintf("mpi: rank %d registered twice", r))
	}
	c := &Ctx{w: w, rank: r, t: t, hooks: hooks}
	w.ranks[r] = c
	return c
}

// Rank returns the context registered for rank r.
func (w *World) Rank(r int) *Ctx { return w.ranks[r] }

// treeDepth is the depth of rank r in a binomial tree rooted at 0.
func treeDepth(r, n int) int {
	if r == 0 {
		return 0
	}
	return bits.Len(uint(r))
}

// logCeil is ceil(log2(n)), at least 1 for n > 1.
func logCeil(n int) int {
	if n <= 1 {
		return 0
	}
	return bits.Len(uint(n - 1))
}

// hopCost is the per-tree-level cost of a collective on this machine.
func (w *World) hopCost(bytes int) des.Time {
	net := w.cfg.Net
	return net.SendOverhead + net.Latency + net.RecvOverhead +
		des.Time(float64(bytes)/net.Bandwidth*float64(des.Second))
}

// collectiveOp coordinates one collective call across all ranks: ranks
// enter, record arrival, and block; the last arrival computes per-rank
// departure times and results, then releases everyone.
type collectiveOp struct {
	kind    string
	seq     int
	root    int
	bytes   int
	n       int
	arrived int
	arrival []des.Time
	present []bool
	contrib []any
	results []any
	depart  []des.Time
	gate    *des.Gate
	// finish is retained so a degraded op can complete without its dead
	// parties; armed marks a scheduled degradation timeout.
	finish func(op *collectiveOp, w *World)
	armed  bool
}

// enterCollective joins the calling rank to the current collective
// operation, verifying call alignment across ranks (a mismatched kind is
// an application bug worth failing loudly on).
func (c *Ctx) enterCollective(kind string, root, bytes int, contrib any,
	finish func(op *collectiveOp, w *World)) (result any) {

	w := c.w
	n := w.Size()
	c.t.Sync()
	seq := c.collCount
	c.collCount++
	op, ok := w.colls[seq]
	if !ok {
		op = &collectiveOp{
			kind: kind, seq: seq, root: root, bytes: bytes, n: n,
			arrival: make([]des.Time, n),
			present: make([]bool, n),
			contrib: make([]any, n),
			results: make([]any, n),
			depart:  make([]des.Time, n),
			gate:    des.NewGate(fmt.Sprintf("coll%d-%s", seq, kind), false),
			finish:  finish,
		}
		w.colls[seq] = op
	}
	if op.kind != kind || op.root != root {
		panic(fmt.Sprintf("mpi: collective mismatch at seq %d: rank %d called %s(root=%d), others %s(root=%d)",
			seq, c.rank, kind, root, op.kind, op.root))
	}
	if op.present[c.rank] {
		panic(fmt.Sprintf("mpi: rank %d re-entered collective seq %d", c.rank, seq))
	}
	op.present[c.rank] = true
	op.arrival[c.rank] = c.t.DES().Now()
	op.contrib[c.rank] = contrib
	op.arrived++
	if op.arrived == n {
		finish(op, w)
		delete(w.colls, seq)
		op.gate.Set(true)
	} else {
		if w.deadCount > 0 {
			w.maybeArm(op)
		}
		c.t.Block(func(p *des.Proc) { p.Await(op.gate) })
	}
	// Every rank departs at its computed time; the gate released at the
	// last arrival, so only the remaining delta must be waited out.
	if d := op.depart[c.rank] - c.t.DES().Now(); d > 0 {
		c.t.DES().Advance(d)
	}
	return op.results[c.rank]
}

// maxArrival is the release floor of a collective: nobody departs before
// the last party arrives.
func (op *collectiveOp) maxArrival() des.Time {
	var m des.Time
	for i, t := range op.arrival {
		if !op.present[i] {
			continue
		}
		if t > m {
			m = t
		}
	}
	return m
}
