package des

import (
	"cmp"
	"fmt"
	"slices"

	"dynprof/internal/par"
)

// This file implements conservative parallel discrete-event simulation: a
// Cluster of per-shard Schedulers that execute in time-windowed rounds.
//
// Each shard owns its own virtual clock, event queue and Procs. Within one
// round every shard may execute events strictly before the round's limit
// without consulting any other shard, because the model guarantees a
// lookahead: a cross-shard interaction scheduled by an event at time t can
// take effect no earlier than t + lookahead (in the machine model the
// lookahead is the interconnect wire latency — nothing crosses between
// nodes faster than the network). Rounds are separated by a barrier at
// which cross-shard casts are merged deterministically, so a run's result
// depends only on the seed, the shard count and the lookahead, never on
// host scheduling or the number of host workers.

// castMsg is one cross-shard event awaiting delivery at the next barrier.
// (src, idx) identify the message's deterministic position: idx is the
// message's index in the source shard's outbox for the current round.
type castMsg struct {
	to  int
	at  Time
	src int
	idx int
	fn  func()
}

// Cluster drives a set of shard Schedulers through windowed rounds. Create
// one with NewCluster, spawn Procs on the individual shards (Shard), and
// call Run. Procs must only touch their own shard's Scheduler; the only
// legal cross-shard operation is Scheduler.Cast.
type Cluster struct {
	shards    []*Scheduler
	lookahead Time
	budget    Budget
	workers   int

	// Round scratch, reused across rounds: the current window's limit,
	// the shards with work before it, their loop statuses, and the casts
	// to deliver. window runs busy shard i's window; it is bound once so
	// that a round allocates no closure.
	limit  Time
	busy   []*Scheduler
	status []loopStatus
	casts  []castMsg
	window func(i int)
}

// ClusterOption configures a Cluster at construction time.
type ClusterOption func(*Cluster)

// WithClusterBudget bounds the whole cluster run: each shard is bounded by
// the budget individually (a runaway shard trips inside a round) and the
// aggregate event count across shards is checked at every barrier.
func WithClusterBudget(b Budget) ClusterOption {
	return func(c *Cluster) { c.budget = b }
}

// WithHostParallelism sets how many host goroutines execute shards within a
// round. It affects wall-clock time only — results are identical for any
// value. Values below 1 select the serial fallback.
func WithHostParallelism(n int) ClusterOption {
	return func(c *Cluster) { c.workers = n }
}

// NewCluster builds a cluster of shards schedulers with the given
// conservative lookahead. Each shard's RNG stream is forked from seed, so a
// run is deterministic for a fixed (seed, shard count) pair. The lookahead
// must be positive: it is the round length, and every cross-shard Cast must
// cover at least this much virtual time.
func NewCluster(shards int, lookahead Time, seed uint64, opts ...ClusterOption) *Cluster {
	if shards <= 0 {
		panic(fmt.Sprintf("des: NewCluster with %d shards", shards))
	}
	if lookahead <= 0 {
		panic(fmt.Sprintf("des: NewCluster with non-positive lookahead %v", lookahead))
	}
	c := &Cluster{lookahead: lookahead, workers: 1}
	for _, o := range opts {
		o(c)
	}
	root := NewRNG(seed)
	c.shards = make([]*Scheduler, shards)
	c.busy = make([]*Scheduler, 0, shards)
	c.status = make([]loopStatus, shards)
	c.window = func(i int) { c.status[i] = c.busy[i].run(c.limit, nil) }
	for i := range c.shards {
		s := NewScheduler(root.Uint64(), WithBudget(c.budget))
		s.cluster = c
		s.shardID = i
		c.shards[i] = s
	}
	return c
}

// Shards reports the number of shards.
func (c *Cluster) Shards() int { return len(c.shards) }

// Shard returns shard i's Scheduler.
func (c *Cluster) Shard(i int) *Scheduler { return c.shards[i] }

// Executed reports the total number of events executed across all shards.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.executed
	}
	return n
}

// ShardID reports which shard this Scheduler is. A Scheduler outside any
// Cluster is shard 0 of a notional one-shard world.
func (s *Scheduler) ShardID() int { return s.shardID }

// Cast schedules fn to run on shard to, d after the current virtual time.
// Within the caller's own shard it is exactly After. Across shards the
// delay must be at least the cluster's lookahead — the conservative
// contract that makes rounds safe — and violating it panics, because a
// too-fast cross-shard message is always a modelling bug (the machine's
// wire latency is the lookahead, so no legal message can undercut it).
// fn runs on the destination shard's goroutine and may use only that
// shard's Scheduler. On a Scheduler outside any Cluster, Cast(0, d, fn)
// is After(d, fn).
func (s *Scheduler) Cast(to int, d Time, fn func()) {
	c := s.cluster
	if c == nil {
		if to != 0 {
			panic(fmt.Sprintf("des: Cast to shard %d on an unsharded scheduler", to))
		}
		s.After(d, fn)
		return
	}
	if to < 0 || to >= len(c.shards) {
		panic(fmt.Sprintf("des: Cast to shard %d of %d", to, len(c.shards)))
	}
	if to == s.shardID {
		s.After(d, fn)
		return
	}
	if d < c.lookahead {
		panic(fmt.Sprintf("des: Cast from shard %d to %d with delay %v below lookahead %v",
			s.shardID, to, d, c.lookahead))
	}
	s.outbox = append(s.outbox, castMsg{to: to, at: s.now + d, src: s.shardID, idx: len(s.outbox), fn: fn})
}

// Run executes the cluster to completion. The contract matches
// Scheduler.Run: nil on a clean drain or Stop, *DeadlockError if Procs
// remain blocked across the cluster, *LivelockError when the budget is
// exhausted, and the *ProcPanicError of a Proc that panicked (after every
// shard has been torn down). Results are bit-for-bit identical for
// a fixed seed and shard count, regardless of host parallelism.
func (c *Cluster) Run() error {
	for {
		t0, ok := c.earliest()
		if !ok {
			break
		}
		if end, err := c.round(t0); end {
			return err
		}
	}
	err := deadlock(c.shards...)
	abortAll(c.shards...)
	return err
}

// earliest reports the time of the earliest pending event on any shard;
// ok is false once every shard has drained.
func (c *Cluster) earliest() (t0 Time, ok bool) {
	for _, s := range c.shards {
		if s.pending() > 0 && (!ok || s.nextAt() < t0) {
			t0, ok = s.nextAt(), true
		}
	}
	return t0, ok
}

// round runs the window that starts at t0 and then the barrier that ends
// it. end reports that the run is over, with err as Run's result.
func (c *Cluster) round(t0 Time) (end bool, err error) {
	if c.budget.MaxVirtual > 0 && t0 > c.budget.MaxVirtual ||
		c.budget.MaxEvents > 0 && c.Executed() >= c.budget.MaxEvents {
		return true, livelocked(c.shards...)
	}

	// Every cast generated during the round is at >= t0 + lookahead, so
	// events before that limit are causally closed: shards may execute
	// them in parallel, each on one host worker; rounds are separated by
	// par.For's return, so shard state needs no locking. Only shards with
	// work before the limit need to run; a shard holding casts made
	// outside any round joins them so its outbox is delivered at this
	// barrier. A window leaves MaxVirtual to the next barrier: another
	// shard may still have earlier work, exactly as a single global queue
	// would keep serving earlier events.
	limit := t0 + c.lookahead
	c.busy = c.busy[:0]
	for _, s := range c.shards {
		if (s.pending() > 0 && s.nextAt() < limit) || len(s.outbox) > 0 {
			c.busy = append(c.busy, s)
		}
	}
	// Nearly every round of a wavefront has one busy shard. Its window is
	// called directly: going through par.For and the bound window
	// function cost the one-shard wavefront about a tenth of its time per
	// hop (BenchmarkAdvanceInPlace/wavefront1).
	if len(c.busy) == 1 {
		c.status[0] = c.busy[0].run(limit, nil)
	} else {
		c.limit = limit
		par.For(c.workers, len(c.busy), c.window)
	}

	// Deliver the round's casts in deterministic (at, src, idx) order,
	// assigning fresh seqs on the destination shard. Every shard holding
	// casts is busy, so the idle ones need not be visited.
	c.casts = c.casts[:0]
	for _, s := range c.busy {
		c.casts = append(c.casts, s.outbox...)
		clear(s.outbox)
		s.outbox = s.outbox[:0]
	}
	if len(c.casts) > 1 {
		slices.SortFunc(c.casts, castOrder)
	}
	for i := range c.casts {
		m := &c.casts[i]
		c.shards[m.to].schedule(m.at, nil, m.fn)
		m.fn = nil
	}

	// busy is in shard order, so the lowest shard's panic is returned.
	res := c.status[:len(c.busy)]
	for i, st := range res {
		if st == fatal {
			abortAll(c.shards...)
			return true, c.busy[i].fatal
		}
	}
	if slices.Contains(res, overEvents) {
		return true, livelocked(c.shards...)
	}
	for _, s := range c.shards {
		if s.stopped {
			abortAll(c.shards...)
			return true, nil
		}
	}
	return false, nil
}

// castOrder is the barrier's delivery order: by arrival time, then source
// shard, then position in the source's outbox. (src, idx) is unique, so
// the order is total and an unstable sort is deterministic.
func castOrder(a, b castMsg) int {
	if a.at != b.at {
		return cmp.Compare(a.at, b.at)
	}
	if a.src != b.src {
		return cmp.Compare(a.src, b.src)
	}
	return cmp.Compare(a.idx, b.idx)
}
