package mpi

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// Message is a delivered point-to-point message.
type Message struct {
	Src     int
	Tag     int
	Bytes   int
	Payload any
}

// message is an in-flight message with its bookkeeping.
type message struct {
	Message
	arrived des.Time
}

// recvWait is a posted receive waiting for a matching message.
type recvWait struct {
	src, tag int
	got      *message
	gate     *des.Gate
}

// rankBox holds rank-local matching state: messages that arrived with no
// matching receive, and receives posted with no matching message.
type rankBox struct {
	msgs  []*message
	recvs []*recvWait
}

func match(src, tag int, m *message) bool {
	return (src == AnySource || src == m.Src) && (tag == AnyTag || tag == m.Tag)
}

// deliver lands a message at its destination at the current virtual time,
// completing the oldest matching posted receive if any.
func (w *World) deliver(dst int, m *message) {
	box := w.boxes[dst]
	m.arrived = w.s.Now()
	for i, rw := range box.recvs {
		if match(rw.src, rw.tag, m) {
			box.recvs = append(box.recvs[:i], box.recvs[i+1:]...)
			rw.got = m
			rw.gate.Set(true)
			return
		}
	}
	box.msgs = append(box.msgs, m)
}

// postRecv matches a posted receive against queued messages or registers
// it as waiting. Returns the matched message, or nil if registered.
func (w *World) postRecv(dst int, rw *recvWait) *message {
	box := w.boxes[dst]
	for i, m := range box.msgs {
		if match(rw.src, rw.tag, m) {
			box.msgs = append(box.msgs[:i], box.msgs[i+1:]...)
			return m
		}
	}
	box.recvs = append(box.recvs, rw)
	return nil
}

// maybeArmRecv arms timeout release for a posted receive whose specific
// source rank is dead: the message will never be sent, so after the
// detection timeout the receive completes with an empty message instead
// of hanging the DES. AnySource receives are left alone — any live rank
// can still satisfy them.
func (w *World) maybeArmRecv(dst int, rw *recvWait) {
	if w.deadCount == 0 || rw.src == AnySource {
		return
	}
	if rw.src < 0 || rw.src >= len(w.dead) || !w.dead[rw.src] {
		return
	}
	w.s.After(w.detectTimeout(), func() { w.releaseRecv(dst, rw) })
}

// releaseRecv degrades a receive from a dead rank: it is removed from
// the box and completed with a zero-byte message carrying the expected
// src/tag. A no-op if the receive completed normally in the meantime
// (e.g. the message was already in flight when the sender crashed).
func (w *World) releaseRecv(dst int, rw *recvWait) {
	if rw.got != nil {
		return
	}
	box := w.boxes[dst]
	for i, cur := range box.recvs {
		if cur == rw {
			box.recvs = append(box.recvs[:i], box.recvs[i+1:]...)
			break
		}
	}
	rw.got = &message{Message: Message{Src: rw.src, Tag: rw.tag}, arrived: w.s.Now()}
	w.inj.Record(w.s.Now(), fault.KindDegrade, -1, dst,
		fmt.Sprintf("recv from dead rank %d released", rw.src))
	rw.gate.Set(true)
}

// Request is a non-blocking receive's handle.
type Request struct {
	c    *Ctx
	done bool
	// seq numbers the request among the rank's Irecvs, modulo 2^32 (0
	// for Sendrecv's internal receive); 32 bits keep Request in its size
	// class.
	seq uint32
	rw  *recvWait
	msg Message
}

// send implements the shared sending path: charge sender overhead, then
// schedule delivery after the wire transfer time.
func (c *Ctx) send(dst, tag int, bytes int, payload any) {
	if dst < 0 || dst >= c.w.Size() {
		panic(fmt.Sprintf("mpi: rank %d send to invalid rank %d", c.rank, dst))
	}
	if bytes < 0 {
		panic("mpi: negative message size")
	}
	c.t.Sync()
	c.t.WorkTime(c.w.cfg.Net.SendOverhead)
	c.t.Sync()
	transfer := c.w.cfg.TransferTime(c.w.place.NodeOf(c.rank), c.w.place.NodeOf(dst), bytes)
	m := &message{Message: Message{Src: c.rank, Tag: tag, Bytes: bytes, Payload: payload}}
	c.w.s.After(transfer, func() { c.w.deliver(dst, m) })
	if c.hooks != nil {
		c.hooks.MsgSend(c, dst, tag, bytes)
	}
}

// recvCommon blocks until a matching message is available and completes
// the receive, charging the receiver-side overhead.
func (c *Ctx) recvCommon(src, tag int) Message {
	c.t.Sync()
	rw := &recvWait{src: src, tag: tag, gate: des.NewGate(fmt.Sprintf("recv@%d", c.rank), false)}
	if m := c.w.postRecv(c.rank, rw); m != nil {
		rw.got = m
	} else {
		c.w.maybeArmRecv(c.rank, rw)
		c.t.Block(func(p *des.Proc) { p.Await(rw.gate) })
	}
	c.t.WorkTime(c.w.cfg.Net.RecvOverhead)
	if c.hooks != nil {
		c.hooks.MsgRecv(c, rw.got.Src, rw.got.Tag, rw.got.Bytes)
	}
	return rw.got.Message
}
