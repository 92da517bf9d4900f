package des

import (
	"fmt"
	"strings"
)

// event is one scheduled action: either a typed "resume proc" record (proc
// non-nil) or an arbitrary callback fn. The typed variant exists so the
// hottest operations in the simulator — Spawn, wake and Advance, which all
// just resume a Proc — schedule a value with no closure allocation. Events
// at the same virtual time fire in insertion (seq) order, which keeps the
// simulation deterministic.
type event struct {
	at   Time
	seq  uint64
	proc *Proc
	fn   func()
}

// eventBefore reports queue priority: earlier time first, then earlier seq.
func eventBefore(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// eventHeap is a value-type 4-ary min-heap ordered by (at, seq). Storing
// event values instead of *event removes the per-event allocation and the
// pointer chase on every comparison, and the 4-ary layout halves the number
// of levels touched per sift relative to a binary heap. Vacated slots are
// zeroed so dead closures and Procs are not retained by the backing array.
type eventHeap struct {
	a []event
}

func (h *eventHeap) len() int { return len(h.a) }

func (h *eventHeap) push(ev event) {
	h.a = append(h.a, event{})
	a := h.a
	i := len(a) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !eventBefore(&ev, &a[parent]) {
			break
		}
		a[i] = a[parent]
		i = parent
	}
	a[i] = ev
}

func (h *eventHeap) pop() event {
	a := h.a
	root := a[0]
	n := len(a) - 1
	last := a[n]
	a[n] = event{}
	h.a = a[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

// siftDown places ev, logically occupying the vacated root, into its final
// position, moving smaller children up along the way.
func (h *eventHeap) siftDown(ev event) {
	a := h.a
	n := len(a)
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		end := first + 4
		if end > n {
			end = n
		}
		for c := first + 1; c < end; c++ {
			if eventBefore(&a[c], &a[best]) {
				best = c
			}
		}
		if !eventBefore(&a[best], &ev) {
			break
		}
		a[i] = a[best]
		i = best
	}
	a[i] = ev
}

// eventRing is a FIFO servicing the dominant scheduling pattern: events for
// the current instant (After(0) — every Proc step, wake and yield). Such
// events bypass the heap entirely. The ring's correctness rests on one
// invariant: every entry has at == now, because entries are only pushed
// when t == now and the clock only advances when the ring is empty (while
// it is non-empty the next event is at now, so popping never moves the
// clock). Seqs within the ring are strictly increasing, so FIFO order is
// exactly (at, seq) order. Popped slots are zeroed to release references.
type eventRing struct {
	buf  []event // power-of-two sized circular buffer
	head int
	n    int
}

func (r *eventRing) push(ev event) {
	if r.n == len(r.buf) {
		r.grow()
	}
	r.buf[(r.head+r.n)&(len(r.buf)-1)] = ev
	r.n++
}

func (r *eventRing) grow() {
	size := len(r.buf) * 2
	if size == 0 {
		size = 16
	}
	buf := make([]event, size)
	for i := 0; i < r.n; i++ {
		buf[i] = r.buf[(r.head+i)&(len(r.buf)-1)]
	}
	r.buf = buf
	r.head = 0
}

func (r *eventRing) peek() *event { return &r.buf[r.head] }

func (r *eventRing) pop() event {
	ev := r.buf[r.head]
	r.buf[r.head] = event{}
	r.head = (r.head + 1) & (len(r.buf) - 1)
	r.n--
	return ev
}

// Scheduler owns the virtual clock and the event queue, and drives every
// Proc in the simulation. A Scheduler must only be used from the goroutine
// that calls Run (Procs are resumed synchronously inside Run, so Proc code
// also effectively runs under Run).
type Scheduler struct {
	now      Time
	seq      uint64
	heap     eventHeap
	ring     eventRing
	procs    []*Proc
	rng      *RNG
	stopped  bool
	budget   Budget
	executed uint64
	fatal    *ProcPanicError
	running  *Proc // the Proc being resumed, nil in event context

	// Sharding state (see shard.go). All three are zero for a standalone
	// Scheduler, whose behaviour is completely unchanged.
	cluster *Cluster
	shardID int
	outbox  []castMsg
}

// ProcPanicError is the typed value Run panics with when a Proc panics: it
// preserves the original panic value and the panicking goroutine's stack
// instead of flattening both into a formatted string, so supervising
// harnesses can classify the failure and report the real fault site.
type ProcPanicError struct {
	// Proc is the name of the Proc that panicked.
	Proc string
	// Value is the original panic value, unmodified.
	Value any
	// Stack is the panicking goroutine's stack, captured at the point of
	// recovery (before the Proc unwound).
	Stack []byte
}

// Error renders the panic without the stack; the stack stays available on
// the field so messages remain deterministic for identical simulations.
func (e *ProcPanicError) Error() string {
	return fmt.Sprintf("des: panic in proc %q: %v", e.Proc, e.Value)
}

// NewScheduler returns a Scheduler with its clock at zero, seeded with
// seed and configured by opts (e.g. WithBudget).
func NewScheduler(seed uint64, opts ...Option) *Scheduler {
	s := &Scheduler{rng: NewRNG(seed)}
	for _, o := range opts {
		o(s)
	}
	return s
}

// Now reports the current virtual time.
func (s *Scheduler) Now() Time { return s.now }

// RNG returns the scheduler's deterministic random source.
func (s *Scheduler) RNG() *RNG { return s.rng }

// schedule enqueues one event. Same-instant events go to the FIFO ring;
// future events go to the heap. Scheduling in the past panics: that is
// always a bug in a simulation model.
func (s *Scheduler) schedule(t Time, p *Proc, fn func()) {
	if t < s.now {
		panic(fmt.Sprintf("des: event scheduled at %v, before now %v", t, s.now))
	}
	s.seq++
	ev := event{at: t, seq: s.seq, proc: p, fn: fn}
	if t == s.now {
		s.ring.push(ev)
	} else {
		s.heap.push(ev)
	}
}

// At schedules fn to run at virtual time t.
func (s *Scheduler) At(t Time, fn func()) { s.schedule(t, nil, fn) }

// After schedules fn to run d after the current virtual time.
func (s *Scheduler) After(d Time, fn func()) { s.schedule(s.now+d, nil, fn) }

// resumeAfter schedules the typed, allocation-free event that resumes p at
// d after the current virtual time.
func (s *Scheduler) resumeAfter(d Time, p *Proc) { s.schedule(s.now+d, p, nil) }

// pending reports the number of queued events across ring and heap.
func (s *Scheduler) pending() int { return s.ring.n + s.heap.len() }

// nextAt reports the virtual time of the next event; pending() must be > 0.
// A non-empty ring always holds events at now, which no heap entry beats.
func (s *Scheduler) nextAt() Time {
	if s.ring.n > 0 {
		return s.now
	}
	return s.heap.a[0].at
}

// popNext removes and returns the globally next event by (at, seq). The
// ring wins unless the heap root sorts strictly earlier: a heap event at
// the same time was necessarily scheduled at an earlier instant, so it
// carries a smaller seq and must fire before anything in the ring.
func (s *Scheduler) popNext() event {
	if s.ring.n == 0 {
		return s.heap.pop()
	}
	if s.heap.len() > 0 && eventBefore(&s.heap.a[0], s.ring.peek()) {
		return s.heap.pop()
	}
	return s.ring.pop()
}

// Stop makes Run return after the current event completes. Parked Procs are
// aborted so their coroutines finish.
func (s *Scheduler) Stop() { s.stopped = true }

// Kill terminates one Proc immediately, modelling a process crash: the
// Proc unwinds and finishes, and it never runs again. Pending wake-ups for
// the Proc become no-ops. Killing a parked (or never-started) Proc resumes
// it just long enough to unwind, so Kill may be called from event context
// or from inside another Proc. A Proc that kills itself unwinds at once,
// as if it had crashed at that instruction: Kill does not return to it.
// Killing an already-finished Proc is a no-op.
//
// A killed Proc that was waiting on a Mailbox stays in that mailbox's
// waiter list; a message later routed to it is consumed and dropped,
// like a packet sent to a crashed host.
func (s *Scheduler) Kill(p *Proc) {
	if p.done {
		return
	}
	p.killed = true
	if p == s.running {
		panic(errAborted)
	}
	s.resume(p)
}

// DeadlockError is returned by Run when the event queue drains while some
// Procs are still blocked: nothing can ever wake them again.
type DeadlockError struct {
	// Blocked lists the names of the Procs that were still parked, with
	// the operation each was blocked on.
	Blocked []string
}

func (e *DeadlockError) Error() string {
	return fmt.Sprintf("des: deadlock: %d proc(s) blocked forever: %s",
		len(e.Blocked), strings.Join(e.Blocked, ", "))
}

// Run executes events until the queue is empty or Stop is called. It
// returns a *DeadlockError if Procs remain blocked with no pending events,
// a *LivelockError if the scheduler's Budget is exhausted first, and nil
// otherwise. A panic raised inside a Proc is re-raised here as a typed
// *ProcPanicError carrying the original panic value and stack.
func (s *Scheduler) Run() error {
	if err := s.Drain(); err != nil {
		return err
	}
	return s.Finish()
}

// Drain executes events until the queue is empty or Stop is called, leaving
// the simulation intact: parked Procs stay parked and more events may be
// scheduled afterwards (from host code between drains — an interactive
// bridge pumping one command at a time). Only budget exhaustion returns an
// error, and that error is terminal: livelocked() has already aborted every
// Proc. Deadlock detection is deferred to Finish, because Procs blocked at
// the end of a drain may legitimately be woken by a later drain.
func (s *Scheduler) Drain() error { return s.DrainUntil(nil) }

// DrainUntil is Drain with an early-exit predicate: after each event, if
// done is non-nil and returns true, DrainUntil returns immediately with the
// queue and Procs intact. Used to run the simulation just far enough for
// one request to complete.
func (s *Scheduler) DrainUntil(done func() bool) error {
	for s.pending() > 0 && !s.stopped {
		if s.exhausted() {
			return s.livelocked()
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
			f := s.fatal
			s.abortAll()
			panic(f)
		}
		if done != nil && done() {
			return nil
		}
	}
	return nil
}

// Finish tears the simulation down after a final Drain: every parked Proc
// is aborted so its coroutine finishes, and a *DeadlockError reports any
// non-daemon Procs that were still blocked with nothing left to wake them
// (unless Stop was called, which makes blocked Procs expected).
func (s *Scheduler) Finish() error {
	var blocked []string
	for _, p := range s.procs {
		if !p.done && p.started && !p.daemon {
			blocked = append(blocked, p.blockedReport())
		}
	}
	s.abortAll()
	if s.stopped {
		return nil
	}
	if len(blocked) > 0 {
		return &DeadlockError{Blocked: blocked}
	}
	return nil
}

// Executed reports the number of events executed so far.
func (s *Scheduler) Executed() uint64 { return s.executed }

// abortAll resumes every unfinished Proc with its killed flag set so it
// unwinds and its coroutine finishes. Used on the Stop, deadlock,
// budget-exhaustion and fatal-panic paths (the last re-raising the Proc's
// *ProcPanicError after teardown) so the process does not leak goroutines.
func (s *Scheduler) abortAll() {
	for _, p := range s.procs {
		for !p.done {
			p.killed = true
			s.resume(p)
		}
	}
}
