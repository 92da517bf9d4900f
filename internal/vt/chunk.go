package vt

import (
	"math"
	"sort"
	"sync"

	"dynprof/internal/des"
	"dynprof/internal/par"
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

// mergeParts k-way merges the time-sorted segments of c (total events)
// into fresh pooled chunks, keyed on (At, segment index), on up to
// par.Workers() parts at once. Segments tile the chain in insertion order,
// so the segment index orders ties exactly as the insertion index would,
// and the result is the stable time order of the insertion-ordered stream.
//
// The merged order is cut at exact rank splitters: part p holds the events
// of ranks [bound(p), bound(p+1)), every bound but the last a multiple of
// chunkEvents, and each segment gives the part one sub-range, the events
// of those ranks (rankCuts). Merging a part's sub-ranges on the same key
// yields that stretch of the global order, so the parts' chunks, written
// side by side into one chunk list, are exactly the chunks one merge would
// make: all full but the last.
func mergeParts(c chain, segs []segRange, total int) chain {
	chunks := (total + chunkMask) >> chunkShift
	parts := min(par.Workers(), chunks)
	bound := func(p int) int { return min(chunks*p/parts<<chunkShift, total) }
	idx := make([]segIndex, len(segs))
	for s, seg := range segs {
		idx[s] = indexSeg(c, seg)
	}
	// sub[p][s] is segment s's sub-range in part p, in slots.
	sub := make([][]segRange, parts)
	lo := make([]int, len(segs)) // slot where each segment's part starts
	for s, seg := range segs {
		lo[s] = seg.start
	}
	for p := range parts {
		sub[p] = make([]segRange, len(segs))
		hi := rankCuts(idx, bound(p+1), total)
		for s := range segs {
			sub[p][s] = segRange{lo[s], hi[s]}
		}
		lo = hi
	}
	out := make(chain, chunks)
	par.For(parts, parts, func(p int) {
		first, last := bound(p)>>chunkShift, (bound(p+1)+chunkMask)>>chunkShift
		mergeSegs(c, sub[p], out[first:first:last])
	})
	return out
}

// segIndex finds a time-sorted segment's events by rank within it.
type segIndex struct {
	pieces [][]Event // the segment's non-empty pieces, in order
	slots  []int     // slot of each piece's first event
	ranks  []int     // rank of each piece's first event, then the event count
	end    int       // the segment's end slot
}

func indexSeg(c chain, seg segRange) segIndex {
	x := segIndex{end: seg.end, ranks: []int{0}}
	for ci := seg.start >> chunkShift; ci<<chunkShift < seg.end; ci++ {
		if base, p := c.piece(ci, seg.start, seg.end); len(p) > 0 {
			x.pieces = append(x.pieces, p)
			x.slots = append(x.slots, base)
			x.ranks = append(x.ranks, x.ranks[len(x.ranks)-1]+len(p))
		}
	}
	return x
}

// len reports the segment's event count.
func (x *segIndex) len() int { return x.ranks[len(x.ranks)-1] }

// below counts the segment's events earlier than t, or no later than t if
// orEqual.
func (x *segIndex) below(t des.Time, orEqual bool) int {
	past := func(at des.Time) bool { return at > t || (!orEqual && at == t) }
	pi := sort.Search(len(x.pieces), func(i int) bool { p := x.pieces[i]; return past(p[len(p)-1].At) })
	if pi == len(x.pieces) {
		return x.len()
	}
	p := x.pieces[pi]
	return x.ranks[pi] + sort.Search(len(p), func(j int) bool { return past(p[j].At) })
}

// slot returns the slot of the segment's event of rank q, or its end slot
// when q is the event count.
func (x *segIndex) slot(q int) int {
	if q == x.len() {
		return x.end
	}
	pi := sort.Search(len(x.pieces), func(i int) bool { return x.ranks[i+1] > q })
	return x.slots[pi] + q - x.ranks[pi]
}

// rankCuts returns, for each segment, the slot of its first event at merged
// rank r or later: the first r events of the merge in (At, segment index)
// order are those before the cuts. total is the segments' event count.
func rankCuts(idx []segIndex, r, total int) []int {
	cuts := make([]int, len(idx))
	if r == total {
		for s := range idx {
			cuts[s] = idx[s].end
		}
		return cuts
	}
	// The event of rank r has the least time t with more than r events no
	// later than t; it lies between the earliest and latest event.
	lo, hi := des.Time(math.MaxInt64), des.Time(math.MinInt64)
	for s := range idx {
		x := &idx[s]
		if len(x.pieces) > 0 {
			last := x.pieces[len(x.pieces)-1]
			lo, hi = min(lo, x.pieces[0][0].At), max(hi, last[len(last)-1].At)
		}
	}
	for lo < hi {
		mid := lo + des.Time((uint64(hi)-uint64(lo))/2)
		n := 0
		for s := range idx {
			n += idx[s].below(mid, true)
		}
		if n > r {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	// Every event earlier than t comes first; the rest of the r are ties
	// at t, taken in segment order.
	counts := make([]int, len(idx))
	need := r
	for s := range idx {
		counts[s] = idx[s].below(lo, false)
		need -= counts[s]
	}
	for s := range idx {
		take := min(need, idx[s].below(lo, true)-counts[s])
		counts[s] += take
		need -= take
		cuts[s] = idx[s].slot(counts[s])
	}
	return cuts
}

// mergeSegs k-way merges time-sorted segments of c, keyed on (At, segment
// index), appending the merged events to out in fresh pooled chunks, all
// full but the last. out's capacity must hold those chunks. An empty
// segment (start == end) takes part in no comparison.
//
// The merge is a tournament (loser) tree over the cursors: each event
// costs one comparison per tree level, against two per level for a binary
// heap's sift-down.
func mergeSegs(c chain, segs []segRange, out chain) chain {
	k := len(segs)
	curs := make([]mergeCursor, k)
	keys := make([]mergeKey, k)
	for si, s := range segs {
		m := &curs[si]
		m.ci, m.end = s.start>>chunkShift-1, s.end
		keys[si] = mergeKey{at: math.MaxInt64, seg: k + si}
		if s.start < s.end && m.advance(c) {
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
	var dst []Event
	j := 0
	for {
		w := tree[0]
		if keys[w].seg >= k {
			break
		}
		if j == 0 {
			dst = newChunk()[:chunkEvents]
		}
		m := &curs[w]
		dst[j] = m.ev[0]
		if j++; j == chunkEvents {
			out = append(out, dst)
			j = 0
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
	}
	return out
}
