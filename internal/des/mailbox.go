package des

// Mailbox is an unbounded FIFO message queue between Procs. Values may be
// deposited from any event or Proc context (optionally after a delivery
// delay); Procs block to receive. Receivers are served in arrival order.
type Mailbox struct {
	s       *Scheduler
	name    string
	queue   []any
	waiters []*mboxWaiter
}

type mboxWaiter struct {
	p       *Proc
	value   any
	ready   bool
	expired bool
}

// NewMailbox creates an empty mailbox owned by s.
func NewMailbox(s *Scheduler, name string) *Mailbox {
	return &Mailbox{s: s, name: name}
}

// Len reports the number of queued (undelivered) messages.
func (m *Mailbox) Len() int { return len(m.queue) }

// Put deposits v into the mailbox at the current virtual time, waking the
// oldest waiting receiver if any.
func (m *Mailbox) Put(v any) {
	if len(m.waiters) > 0 {
		w := m.waiters[0]
		m.waiters[0] = nil
		if len(m.waiters) == 1 {
			m.waiters = m.waiters[:0] // keep the capacity for the next waiter
		} else {
			m.waiters = m.waiters[1:]
		}
		w.value, w.ready = v, true
		w.p.wake()
		return
	}
	m.queue = append(m.queue, v)
}

// PutAfter deposits v into the mailbox d from now, modelling transmission
// or processing delay.
func (m *Mailbox) PutAfter(d Time, v any) {
	m.s.After(d, func() { m.Put(v) })
}

// Recv blocks p until a message is available and returns it.
func (p *Proc) Recv(m *Mailbox) any {
	if len(m.queue) > 0 {
		v := m.queue[0]
		m.queue = m.queue[1:]
		return v
	}
	w := &p.recvWait
	*w = mboxWaiter{p: p}
	m.waiters = append(m.waiters, w)
	p.park("recv ", m.name)
	if !w.ready {
		panic("des: mailbox waiter resumed without a value")
	}
	v := w.value
	w.value = nil
	return v
}

// RecvTimeout blocks p until a message is available or d of virtual time
// passes, whichever comes first. ok is false on timeout. A message
// arriving at exactly the deadline wins over the timeout if its delivery
// event was scheduled first — the usual deterministic (time, seq) order.
func (p *Proc) RecvTimeout(m *Mailbox, d Time) (v any, ok bool) {
	if len(m.queue) > 0 {
		v = m.queue[0]
		m.queue = m.queue[1:]
		return v, true
	}
	w := &mboxWaiter{p: p}
	m.waiters = append(m.waiters, w)
	m.s.After(d, func() {
		if w.ready || w.expired {
			return
		}
		w.expired = true
		for i, x := range m.waiters {
			if x == w {
				m.waiters = append(m.waiters[:i], m.waiters[i+1:]...)
				break
			}
		}
		w.p.wake()
	})
	p.park("recv-timeout ", m.name)
	if w.ready {
		return w.value, true
	}
	return nil, false
}

// TryRecv returns a queued message without blocking; ok is false if the
// mailbox is empty.
func (p *Proc) TryRecv(m *Mailbox) (v any, ok bool) {
	if len(m.queue) == 0 {
		return nil, false
	}
	v = m.queue[0]
	m.queue = m.queue[1:]
	return v, true
}
