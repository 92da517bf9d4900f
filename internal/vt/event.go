// Package vt implements a Vampirtrace-like instrumentation library: a
// per-process function registry (VT_funcdef), per-thread timestamped event
// buffers written by VT_begin/VT_end probes, a configuration table that
// activates or deactivates symbols (read from a VT config file and updated
// at runtime through VT_confsync), MPI and OpenMP event logging adapters,
// and a trace-file writer/reader for postmortem analysis.
package vt

import (
	"fmt"
	"math"
	"sort"

	"dynprof/internal/des"
)

// Kind classifies trace events.
type Kind uint8

// Event kinds.
const (
	// Enter and Exit are subroutine entry/exit events (VT_begin/VT_end).
	Enter Kind = iota
	Exit
	// MsgSend and MsgRecv are MPI point-to-point events; A is the peer
	// rank, B the byte count.
	MsgSend
	MsgRecv
	// APIEnter and APIExit bracket MPI library calls seen through the
	// wrapper interface.
	APIEnter
	APIExit
	// RegionFork, RegionEnter, RegionExit and RegionJoin are OpenMP
	// parallel-region events from the Guidetrace hooks; A is the member
	// id for enter/exit.
	RegionFork
	RegionEnter
	RegionExit
	RegionJoin
	// ConfSync marks a VT_confsync call; A is the configuration
	// generation after the sync.
	ConfSync
)

var kindNames = [...]string{
	Enter: "enter", Exit: "exit",
	MsgSend: "send", MsgRecv: "recv",
	APIEnter: "apienter", APIExit: "apiexit",
	RegionFork: "fork", RegionEnter: "renter", RegionExit: "rexit", RegionJoin: "join",
	ConfSync: "confsync",
}

// String returns the kind's mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// EventBytes is the on-disk size of one event record, used for the
// trace-volume accounting that motivates the paper (data gathering "at the
// rate of 2 megabytes per second").
const EventBytes = 24

// Event is one timestamped trace record.
type Event struct {
	At   des.Time
	Rank int32
	TID  int32
	Kind Kind
	ID   int32 // function or region id in the owning rank's table
	A    int64 // kind-specific: peer rank, member id, generation
	B    int64 // kind-specific: byte count
}

// segRange is a slot range of a chain (chunk.go). As a segment it is one
// run of the store with non-decreasing timestamps; segments tile the store
// exactly, in insertion order. As a batch it is one Append's events.
type segRange struct{ start, end int }

// Collector accumulates the trace of a whole run: per-rank function tables
// and the merged event stream. All data collected at run time "is passed
// through Vampirtrace and written to a trace file" at termination.
//
// Events are stored in arrival order in a list of pooled chunks the
// collector owns (chunk.go): Append adopts a batch's full chunks and copies
// only a short or partial tail, so the store is never regrown. The store is
// partitioned into time-sorted segments (per-thread flush batches arrive
// already non-decreasing, so a whole batch is usually one segment). The
// time-ordered view is produced by one k-way merge over the segments into
// pooled chunks and shared by every reader until the next Append; a
// one-segment store is its own view. The chunk store is the only in-memory
// representation; the compact block encoding (compact.go) is applied only
// where the trace leaves memory: spill files, one block per Append batch,
// and the trace file.
type Collector struct {
	funcs   map[int32]map[int32]string // rank -> id -> name
	store   chain                      // resident events, insertion order; chunks owned
	n       int                        // resident events
	segs    []segRange
	batches []segRange // slot range of each resident Append batch
	lastAt  des.Time   // time of the last stored event, when len(segs) > 0

	view    View  // cached ordered view; valid while viewOK
	viewOK  bool  // no Append since view was built
	viewOwn chain // chunks the cached view owns (merge output, decoded spill)

	stats   CompactStats // cached CompactStats result; valid while statsOK
	statsOK bool

	// spill, when non-nil, streams the store to disk whenever it exceeds
	// the configured threshold, bounding resident trace memory (see
	// spill.go and SpillTo).
	spill *spillSink
}

// NewCollector returns an empty trace collector. It holds no chunk until
// its first event arrives.
func NewCollector() *Collector {
	return &Collector{funcs: make(map[int32]map[int32]string)}
}

// Release returns the collector's chunks, its view's included, to the
// shared pool and deletes any spill file. The caller declares that neither
// the collector nor any View obtained from it will be used again.
func (col *Collector) Release() {
	col.store.release()
	col.viewOwn.release()
	col.n, col.segs, col.batches = 0, nil, nil
	col.view, col.viewOK = View{}, false
	col.stats, col.statsOK = CompactStats{}, false
	if col.spill != nil {
		col.spill.close()
		col.spill = nil
	}
}

// AddFuncTable registers rank's id-to-name function table.
func (col *Collector) AddFuncTable(rank int32, names map[int32]string) {
	t := col.funcTable(rank, len(names))
	for id, n := range names {
		t[id] = n
	}
}

// funcTable returns rank's function table, creating it with room for hint
// entries.
func (col *Collector) funcTable(rank int32, hint int) map[int32]string {
	t, ok := col.funcs[rank]
	if !ok {
		t = make(map[int32]string, hint)
		col.funcs[rank] = t
	}
	return t
}

// Append merges a rank's event buffer into the trace as one batch. The
// events are copied into the store (the caller keeps events) and carved
// into non-decreasing-time segments; a batch that continues the previous
// segment's timeline extends it in place.
func (col *Collector) Append(events []Event) {
	if len(events) == 0 {
		return
	}
	start := col.store.next()
	col.store.copyIn(events)
	col.addBatch(start, len(events))
}

// appendThread appends a thread buffer's events as one batch and empties
// the buffer. The pooled chunks the buffer chained become the store's own;
// only the partly filled current chunk is copied, and it stays with the
// thread for reuse.
func (col *Collector) appendThread(tb *threadBuf) {
	if tb.n == 0 {
		return
	}
	start := col.store.next()
	if len(tb.full) > 0 {
		start = len(col.store) << chunkShift
		col.store = append(col.store, tb.full...)
	}
	col.store.copyIn(tb.cur)
	col.addBatch(start, tb.n)
	clear(tb.full)
	tb.full, tb.cur, tb.n = tb.full[:0], tb.cur[:0], 0
}

// addBatch registers the n events stored from slot start to the store's
// end as one batch, invalidates the cached view and statistics, carves the
// batch into segments and lets a spilling collector stream its store out.
func (col *Collector) addBatch(start, n int) {
	end := col.store.end()
	col.batches = append(col.batches, segRange{start, end})
	col.n += n
	col.viewOK, col.viewOwn = false, nil // a View handed out stays readable
	col.statsOK = false
	col.carve(start, end)
	if col.spill != nil {
		col.spill.maybeSpill(col)
	}
}

// carve partitions the store's slot range [start, end) into segments, as
// Append describes.
func (col *Collector) carve(start, end int) {
	prev := col.lastAt
	if len(col.segs) == 0 {
		col.segs = append(col.segs, segRange{start: start})
		prev = col.store[start>>chunkShift][start&chunkMask].At
	}
	prevEnd := col.segs[len(col.segs)-1].end // slot after the previous event
	for ci := start >> chunkShift; ci<<chunkShift < end; ci++ {
		base, p := col.store.piece(ci, start, end)
		for i := range p {
			if p[i].At < prev {
				if i > 0 {
					prevEnd = base + i
				}
				col.segs[len(col.segs)-1].end = prevEnd
				col.segs = append(col.segs, segRange{start: base + i})
			}
			prev = p[i].At
		}
		if len(p) > 0 {
			prevEnd = base + len(p)
		}
	}
	col.segs[len(col.segs)-1].end = end
	col.lastAt = prev
}

// Ordered returns the events sorted by timestamp (stable: ties keep
// insertion order). The k-way merge runs once per collector state: the
// view is cached until the next Append and shared by every reader.
func (col *Collector) Ordered() View {
	if !col.viewOK {
		col.rebuildView()
	}
	return col.view
}

// rebuildView recomputes the cached ordered view. A spilling collector
// first decodes the on-disk prefix (see spill.go); the merge then runs
// over disk and store segments together.
func (col *Collector) rebuildView() {
	col.viewOK = true
	all, segs, decoded := col.store, col.segs, 0
	if col.spill != nil && col.spill.count > 0 {
		all, segs, decoded = col.spill.combined(col)
	}
	switch len(segs) {
	case 0:
		col.view, col.viewOwn = View{}, nil
	case 1:
		// Single timeline: the chunks themselves are the view.
		col.view = all.pieces(segs[0].start, segs[0].end)
		col.viewOwn = all[:decoded:decoded]
	default:
		total := col.n
		if decoded > 0 {
			total += col.spill.count
		}
		col.viewOwn = mergeParts(all, segs, total)
		col.view = View{chunks: col.viewOwn, n: total}
		all = all[:decoded]
		all.release()
	}
}

// Len reports the number of collected events, spilled ones included.
func (col *Collector) Len() int {
	n := col.n
	if col.spill != nil {
		n += col.spill.count
	}
	return n
}

// Bytes reports the trace's size at the fixed per-event record size, the
// trace-volume accounting the paper uses. CompactStats reports the encoded
// volume.
func (col *Collector) Bytes() int { return col.Len() * EventBytes }

// FuncName resolves a function id in rank's table.
func (col *Collector) FuncName(rank, id int32) string {
	if n, ok := col.funcs[rank][id]; ok {
		return n
	}
	return fmt.Sprintf("func#%d", id)
}

// Ranks returns the ranks with registered function tables, sorted.
func (col *Collector) Ranks() []int32 {
	rs := make([]int32, 0, len(col.funcs))
	for r := range col.funcs {
		rs = append(rs, r)
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i] < rs[j] })
	return rs
}

// fitsInt32 reports whether v fits an int32 record field.
func fitsInt32(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// peerFits reports whether a record's A field is in range for its kind: a
// message's A is its peer rank, which must fit in int32 like Rank does.
func peerFits(k Kind, a int64) bool { return (k != MsgSend && k != MsgRecv) || fitsInt32(a) }
