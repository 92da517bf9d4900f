package des

// Gate is a level-triggered condition: Procs that Await a closed gate block
// until it opens; awaiting an open gate is a no-op. Gates model spin-wait
// flags (the paper's DYNVT_spin) and suspend points.
type Gate struct {
	name    string
	open    bool
	waiters []*Proc
}

// NewGate creates a gate. It starts open or closed per the open argument.
func NewGate(name string, open bool) *Gate { return &Gate{name: name, open: open} }

// Open reports the gate's current state.
func (g *Gate) Open() bool { return g.open }

// Waiting reports how many Procs are currently blocked on the gate.
func (g *Gate) Waiting() int { return len(g.waiters) }

// Set opens or closes the gate. Opening it wakes every waiter.
func (g *Gate) Set(open bool) {
	g.open = open
	if !open {
		return
	}
	ws := g.waiters
	g.waiters = nil
	for _, p := range ws {
		p.wake()
	}
}

// Await blocks p until the gate is open.
func (p *Proc) Await(g *Gate) {
	if g.open {
		return
	}
	g.waiters = append(g.waiters, p)
	p.park("await ", g.name)
}

// Barrier is a reusable n-party synchronisation point. All parties leave at
// the virtual time the last one arrives (the natural MPI barrier rule that
// release time is the max of arrival times).
type Barrier struct {
	name    string
	n       int
	waiters []*Proc
}

// NewBarrier creates a barrier for n parties.
func NewBarrier(name string, n int) *Barrier { return &Barrier{name: name, n: n} }

// Parties reports the number of parties the barrier synchronises.
func (b *Barrier) Parties() int { return b.n }

// Arrive blocks p until all n parties have arrived, then releases everyone.
// The barrier immediately resets for reuse.
func (p *Proc) Arrive(b *Barrier) {
	if b.n <= 0 {
		panic("des: barrier with no parties")
	}
	if len(b.waiters)+1 == b.n {
		ws := b.waiters
		b.waiters = nil
		for _, w := range ws {
			w.wake()
		}
		return
	}
	b.waiters = append(b.waiters, p)
	p.park("barrier ", b.name)
}

// Semaphore is a counting semaphore with FIFO wake-up order.
type Semaphore struct {
	name    string
	count   int
	waiters []*Proc
}

// NewSemaphore creates a semaphore with the given initial count.
func NewSemaphore(name string, count int) *Semaphore {
	if count < 0 {
		panic("des: semaphore with negative count")
	}
	return &Semaphore{name: name, count: count}
}

// Release increments the semaphore, waking the oldest waiter if any.
func (s *Semaphore) Release() {
	if len(s.waiters) > 0 {
		w := s.waiters[0]
		s.waiters = s.waiters[1:]
		w.wake()
		return
	}
	s.count++
}

// Acquire decrements the semaphore, blocking p while the count is zero.
func (p *Proc) Acquire(s *Semaphore) {
	if s.count > 0 {
		s.count--
		return
	}
	s.waiters = append(s.waiters, p)
	p.park("acquire ", s.name)
}
