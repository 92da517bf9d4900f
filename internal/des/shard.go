package des

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
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
// depends only on the seed and the shard count, never on host scheduling
// or the number of host workers.

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

// windowStatus is one shard's report for one round.
type windowStatus struct {
	fatal *ProcPanicError
	over  bool
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
	casts     []castMsg // barrier scratch, reused across rounds
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

// Lookahead reports the conservative lookahead the cluster was built with.
func (c *Cluster) Lookahead() Time { return c.lookahead }

// Executed reports the total number of events executed across all shards.
func (c *Cluster) Executed() uint64 {
	var n uint64
	for _, s := range c.shards {
		n += s.executed
	}
	return n
}

// MaxNow reports the latest shard clock — the virtual time the simulation
// as a whole has reached.
func (c *Cluster) MaxNow() Time {
	var m Time
	for _, s := range c.shards {
		if s.now > m {
			m = s.now
		}
	}
	return m
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

// runWindow executes the shard's events strictly before limit, mirroring
// the serial Run loop (same pop order, same per-event budget discipline)
// but reporting fatal Proc panics instead of raising them, since it runs
// on a worker goroutine.
func (s *Scheduler) runWindow(limit Time) windowStatus {
	for s.pending() > 0 && !s.stopped {
		if s.budget.MaxEvents > 0 && s.executed >= s.budget.MaxEvents {
			return windowStatus{over: true}
		}
		next := s.nextAt()
		if next >= limit {
			return windowStatus{}
		}
		if s.budget.MaxVirtual > 0 && next > s.budget.MaxVirtual {
			// Beyond the virtual horizon: leave the event queued and let
			// the barrier decide. Another shard may still have earlier
			// work, exactly as a single global queue would keep serving
			// earlier events.
			return windowStatus{}
		}
		ev := s.popNext()
		s.now = ev.at
		s.executed++
		if ev.proc != nil {
			s.step(ev.proc)
		} else {
			ev.fn()
		}
		if s.fatal != nil {
			return windowStatus{fatal: s.fatal}
		}
	}
	return windowStatus{}
}

// Run executes the cluster to completion. The contract matches
// Scheduler.Run: nil on a clean drain or Stop, *DeadlockError if Procs
// remain blocked across the cluster, *LivelockError when the budget is
// exhausted, and a re-raised *ProcPanicError if a Proc panicked (after
// every shard has been torn down). Results are bit-for-bit identical for
// a fixed seed and shard count, regardless of host parallelism.
func (c *Cluster) Run() error {
	for {
		// The round starts at the earliest pending event anywhere.
		t0, any := Time(0), false
		for _, s := range c.shards {
			if s.pending() > 0 && (!any || s.nextAt() < t0) {
				t0, any = s.nextAt(), true
			}
		}
		if !any {
			break
		}
		if c.budget.MaxVirtual > 0 && t0 > c.budget.MaxVirtual {
			return c.livelocked()
		}
		if c.budget.MaxEvents > 0 && c.Executed() >= c.budget.MaxEvents {
			return c.livelocked()
		}

		// Every cast generated during the round is at >= t0 + lookahead,
		// so events before that limit are causally closed: shards may
		// execute them in parallel.
		res := c.runRound(t0 + c.lookahead)

		// Deliver the round's casts in deterministic (at, src, idx) order,
		// assigning fresh seqs on the destination shard.
		c.casts = c.casts[:0]
		for _, s := range c.shards {
			c.casts = append(c.casts, s.outbox...)
			s.outbox = s.outbox[:0]
		}
		sort.Slice(c.casts, func(i, j int) bool {
			a, b := &c.casts[i], &c.casts[j]
			if a.at != b.at {
				return a.at < b.at
			}
			if a.src != b.src {
				return a.src < b.src
			}
			return a.idx < b.idx
		})
		for i := range c.casts {
			m := &c.casts[i]
			c.shards[m.to].schedule(m.at, nil, m.fn)
			m.fn = nil
		}

		for i := range res {
			if res[i].fatal != nil {
				f := res[i].fatal
				c.abortAll()
				panic(f)
			}
		}
		for i := range res {
			if res[i].over {
				return c.livelocked()
			}
		}
		for _, s := range c.shards {
			if s.stopped {
				c.abortAll()
				return nil
			}
		}
	}

	var blocked []string
	for _, s := range c.shards {
		for _, p := range s.procs {
			if !p.done && p.started && !p.daemon {
				blocked = append(blocked, p.blockedReport())
			}
		}
	}
	c.abortAll()
	if len(blocked) > 0 {
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// runRound executes one window on every shard, spreading shards over the
// configured host workers. Each shard is touched by exactly one worker per
// round and rounds are separated by the WaitGroup barrier, so shard state
// needs no locking.
func (c *Cluster) runRound(limit Time) []windowStatus {
	res := make([]windowStatus, len(c.shards))
	workers := c.workers
	if workers > len(c.shards) {
		workers = len(c.shards)
	}
	if workers <= 1 {
		for i, s := range c.shards {
			res[i] = s.runWindow(limit)
		}
		return res
	}
	var next int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func() {
			defer wg.Done()
			for {
				i := int(atomic.AddInt64(&next, 1)) - 1
				if i >= len(c.shards) {
					return
				}
				res[i] = c.shards[i].runWindow(limit)
			}
		}()
	}
	wg.Wait()
	return res
}

// livelocked terminates an over-budget cluster run with an aggregate
// diagnosis: total events, the latest shard clock, and the hottest Procs
// across all shards.
func (c *Cluster) livelocked() *LivelockError {
	err := &LivelockError{Events: c.Executed(), Virtual: c.MaxNow()}
	var loads []ProcLoad
	for _, s := range c.shards {
		loads = append(loads, s.hotProcs(3)...)
	}
	sort.Slice(loads, func(i, j int) bool {
		if loads[i].Steps != loads[j].Steps {
			return loads[i].Steps > loads[j].Steps
		}
		return loads[i].Proc < loads[j].Proc
	})
	if len(loads) > 3 {
		loads = loads[:3]
	}
	err.Hot = loads
	c.abortAll()
	return err
}

// abortAll tears down every shard's Procs so no goroutines leak.
func (c *Cluster) abortAll() {
	for _, s := range c.shards {
		s.abortAll()
	}
}
