package vt

import (
	"math"
	"sync"

	"dynprof/internal/des"
)

// This file holds the unit every layer of the trace path keeps events in: a
// pooled, fixed-capacity event chunk. A thread buffer chains chunks once it
// outgrows a small slice (ctx.go); Collector.Append adopts a batch's full
// chunks instead of copying them, so the resident store is a list of owned
// chunks that is never regrown (event.go); the trace-file reader and
// the spill decoder fill pooled chunks directly; and the time-ordered view
// every reader shares is itself a list of chunks, merged once per collector
// state.

// chunkShift and chunkEvents size one pooled chunk: 4096 events, 160 KiB.
// A trace file holds one frame of chunkEvents ordered events per chunk, and
// its reader batches it the same way.
const (
	chunkShift  = 12
	chunkEvents = 1 << chunkShift
	chunkMask   = chunkEvents - 1
)

// chunkPool recycles chunks across thread buffers, collectors, views and
// simulation cells.
var chunkPool = sync.Pool{New: func() any { return new([chunkEvents]Event) }}

// newChunk returns an empty pooled chunk (capacity chunkEvents).
func newChunk() []Event { return chunkPool.Get().(*[chunkEvents]Event)[:0] }

// freeChunk returns a chunk obtained from newChunk to the pool; a smaller
// buffer (see grown) is left to the garbage collector.
func freeChunk(c []Event) {
	if cap(c) == chunkEvents {
		chunkPool.Put((*[chunkEvents]Event)(c[:chunkEvents]))
	}
}

// minBuf is the first capacity of a buffer that starts below one chunk.
const minBuf = 8

// grown returns buf's events in a buffer of twice its capacity (at least
// minBuf), a pooled chunk once that reaches chunkEvents. Buffers grow this
// way up to one chunk, so a trace of a few events never pins a whole
// chunk.
func grown(buf []Event) []Event {
	if c := max(2*cap(buf), minBuf); c < chunkEvents {
		return append(make([]Event, 0, c), buf...)
	}
	return append(newChunk(), buf...)
}

// chain is an insertion-ordered list of chunks. A position in a chain is
// a slot: slot s is event s&chunkMask of chunk s>>chunkShift. Only the last
// chunk ever receives more events; an earlier one may be partly filled (a
// batch's full chunks were adopted after it), so a slot range skips the
// unfilled rest of such a chunk. A chain's first chunk starts small and
// grows in place (see grown); every later chunk is pooled.
type chain [][]Event

// end is the slot after the chain's last event.
func (c chain) end() int {
	if len(c) == 0 {
		return 0
	}
	return (len(c)-1)<<chunkShift + len(c[len(c)-1])
}

// next is the slot the next pushed or copied event lands in.
func (c chain) next() int {
	if n := len(c); n > 0 && len(c[n-1]) < chunkEvents {
		return c.end()
	}
	return len(c) << chunkShift
}

// chainHint is the chunk-list capacity a chain starts with: 256k events
// before the list of chunk headers first regrows.
const chainHint = 64

// room returns the last chunk with space for at least one more event: the
// last chunk itself, grown in place while below chunkEvents, or a fresh
// pooled chunk. A chain that never held a chunk starts with a small one; a
// chain emptied by release (a spill) goes straight to pooled chunks.
func (c *chain) room() []Event {
	if n := len(*c); n > 0 {
		switch last := (*c)[n-1]; {
		case len(last) < cap(last):
			return last
		case cap(last) < chunkEvents:
			(*c)[n-1] = grown(last)
			return (*c)[n-1]
		}
	}
	if cap(*c) == 0 {
		*c = append(make(chain, 0, chainHint), grown(nil))
	} else {
		*c = append(*c, newChunk())
	}
	return (*c)[len(*c)-1]
}

// push appends one event.
func (c *chain) push(e Event) {
	last := c.room()
	(*c)[len(*c)-1] = append(last, e)
}

// copyIn appends evs, filling the last chunk and opening new ones.
func (c *chain) copyIn(evs []Event) {
	for len(evs) > 0 {
		last := c.room()
		k := min(len(evs), cap(last)-len(last))
		(*c)[len(*c)-1] = append(last, evs[:k]...)
		evs = evs[k:]
	}
}

// piece returns the part of chunk ci inside slot range [start, end) and
// the slot of its first event.
func (c chain) piece(ci, start, end int) (base int, p []Event) {
	base = ci << chunkShift
	lo, hi := max(start-base, 0), min(len(c[ci]), end-base)
	if lo >= hi {
		return base, nil
	}
	return base + lo, c[ci][lo:hi]
}

// each calls fn with the chain's non-empty pieces in slot range
// [start, end), one per chunk, in order.
func (c chain) each(start, end int, fn func(piece []Event)) {
	for ci := start >> chunkShift; ci<<chunkShift < end; ci++ {
		if _, p := c.piece(ci, start, end); len(p) > 0 {
			fn(p)
		}
	}
}

// count reports the events in slot range [start, end).
func (c chain) count(start, end int) int {
	n := 0
	c.each(start, end, func(p []Event) { n += len(p) })
	return n
}

// contiguous returns the events of slot range [start, end) as one slice:
// the chunk itself when the range lies in one chunk, else a copy in
// *scratch.
func (c chain) contiguous(start, end int, scratch *[]Event) []Event {
	if start>>chunkShift == (end-1)>>chunkShift {
		return c[start>>chunkShift][start&chunkMask : (end-1)&chunkMask+1]
	}
	buf := (*scratch)[:0]
	c.each(start, end, func(p []Event) { buf = append(buf, p...) })
	*scratch = buf
	return buf
}

// release returns every chunk to the pool, keeping the emptied list.
func (c *chain) release() {
	for _, ch := range *c {
		freeChunk(ch)
	}
	clear(*c)
	*c = (*c)[:0]
}

// View is a collector's time-ordered event sequence, held as a list of
// chunks: the merge output, or the collector's own store when the trace is
// one timeline. Every reader of one collector state shares the same view.
// It is read-only and stays valid until the collector is released.
type View struct {
	chunks [][]Event
	n      int
}

// Len reports the number of events in the view.
func (v View) Len() int { return v.n }

// Chunks returns the view's events as consecutive non-empty pieces, in
// time order. Callers must not modify them.
func (v View) Chunks() [][]Event { return v.chunks }

// Span reports the times of the first and last event (zero when empty).
func (v View) Span() (first, last des.Time) {
	if v.n == 0 {
		return 0, 0
	}
	tail := v.chunks[len(v.chunks)-1]
	return v.chunks[0][0].At, tail[len(tail)-1].At
}

// AppendTo appends the view's events to dst in order and returns the
// extended slice. It copies the whole trace, so it is meant for tests and
// small traces; the trace path reads Chunks.
func (v View) AppendTo(dst []Event) []Event {
	for _, ch := range v.chunks {
		dst = append(dst, ch...)
	}
	return dst
}

// pieces returns the view of slot range [start, end) of c without
// copying events.
func (c chain) pieces(start, end int) View {
	var v View
	c.each(start, end, func(p []Event) {
		v.chunks = append(v.chunks, p[:len(p):len(p)])
		v.n += len(p)
	})
	return v
}

// mergeCursor walks one time-sorted segment of a chain during the merge.
type mergeCursor struct {
	ev  []Event // rest of the current piece; ev[0] is the head
	ci  int     // chunk index of the current piece
	end int     // slot after the segment's last event
}

// advance moves the cursor to its segment's next piece, reporting false
// once the segment is exhausted.
func (m *mergeCursor) advance(c chain) bool {
	for m.ci++; m.ci<<chunkShift < m.end; m.ci++ {
		if hi := min(len(c[m.ci]), m.end-m.ci<<chunkShift); hi > 0 {
			m.ev = c[m.ci][:hi]
			return true
		}
	}
	return false
}

// mergeKey orders the merge's cursors by their head event: time, then
// segment index. An exhausted cursor's key sorts after every live one.
type mergeKey struct {
	at  des.Time
	seg int // segment index; len(segs) + index once exhausted
}

func (a mergeKey) less(b mergeKey) bool { return a.at < b.at || (a.at == b.at && a.seg < b.seg) }

// mergeSegs k-way merges time-sorted segments of c into fresh pooled
// chunks, keyed on (At, segment index). Segments tile the chain in
// insertion order, so the segment index orders ties exactly as the
// insertion index would, and the result is the stable time order of the
// insertion-ordered stream.
//
// The merge is a tournament (loser) tree over the cursors: each event
// costs one comparison per tree level, against two per level for a binary
// heap's sift-down.
func mergeSegs(c chain, segs []segRange, total int) chain {
	k := len(segs)
	curs := make([]mergeCursor, k)
	keys := make([]mergeKey, k)
	for si, s := range segs {
		m := &curs[si]
		m.ci, m.end = s.start>>chunkShift-1, s.end
		keys[si] = mergeKey{at: math.MaxInt64, seg: k + si}
		if m.advance(c) {
			m.ev = m.ev[s.start&chunkMask:] // the first piece starts mid-chunk
			keys[si] = mergeKey{at: m.ev[0].At, seg: si}
		}
	}
	// tree[1:k] holds the loser of each internal node (node n has
	// children 2n and 2n+1; leaf i is node k+i), tree[0] the winner.
	tree := make([]int, k)
	win := make([]int, 2*k)
	for i := range k {
		win[k+i] = i
	}
	for n := k - 1; n >= 1; n-- {
		a, b := win[2*n], win[2*n+1]
		if keys[b].less(keys[a]) {
			a, b = b, a
		}
		win[n], tree[n] = a, b
	}
	if k > 1 {
		tree[0] = win[1]
	}
	out := make(chain, 0, (total+chunkMask)>>chunkShift)
	dst, j := newChunk()[:chunkEvents], 0
	for {
		w := tree[0]
		if keys[w].seg >= k {
			break
		}
		m := &curs[w]
		dst[j] = m.ev[0]
		if j++; j == chunkEvents {
			out = append(out, dst)
			dst, j = newChunk()[:chunkEvents], 0
		}
		if m.ev = m.ev[1:]; len(m.ev) > 0 || m.advance(c) {
			keys[w].at = m.ev[0].At
		} else {
			keys[w] = mergeKey{at: math.MaxInt64, seg: k + w}
		}
		// Replay the winner's path to the root.
		kw := keys[w]
		for n := (w + k) >> 1; n > 0; n >>= 1 {
			if l := tree[n]; keys[l].less(kw) {
				tree[n], w, kw = w, l, keys[l]
			}
		}
		tree[0] = w
	}
	if j > 0 {
		out = append(out, dst[:j])
	} else {
		freeChunk(dst)
	}
	return out
}
