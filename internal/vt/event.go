// Package vt implements a Vampirtrace-like instrumentation library: a
// per-process function registry (VT_funcdef), per-thread timestamped event
// buffers written by VT_begin/VT_end probes, a configuration table that
// activates or deactivates symbols (read from a VT config file and updated
// at runtime through VT_confsync), MPI and OpenMP event logging adapters,
// and a trace-file writer/reader for postmortem analysis.
package vt

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
	"sync"
	"unicode/utf8"

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

// String returns the kind's trace mnemonic.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", k)
}

// kindFromBytes inverts String; ok is false for unknown mnemonics.
func kindFromBytes(b []byte) (Kind, bool) {
	for k, n := range kindNames {
		if n == string(b) {
			return Kind(k), true
		}
	}
	return 0, false
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

// segRange is one contiguous run of the collector's store with
// non-decreasing timestamps. Segments tile the store exactly: every stored
// event belongs to one segment, in insertion order.
type segRange struct{ start, end int }

// Collector accumulates the trace of a whole run: per-rank function tables
// and the merged event stream. All data collected at run time "is passed
// through Vampirtrace and written to a trace file" at termination.
//
// Events are stored in one append-only arena in arrival order, partitioned
// into time-sorted segments (per-thread flush batches arrive already
// non-decreasing, so a whole batch is usually one segment). The merged,
// time-ordered view is produced by a k-way merge over the segments and
// cached until the next Append, so Events/Bytes/dump paths stop re-copying
// and re-sorting the world on every call.
type Collector struct {
	funcs map[int32]map[int32]string // rank -> id -> name
	store []Event                    // arena, insertion order; recycled via Release
	segs  []segRange

	merged  []Event // cached merged view; valid while mergedN == len(store)
	mergedN int

	// spill, when non-nil, streams the arena to disk whenever it exceeds
	// the configured threshold, bounding resident trace memory (see
	// spill.go and SpillTo).
	spill *spillSink

	// Compact mode (see compact.go): events are stored as encoded blocks
	// in carena instead of verbatim in store; segs then hold event
	// positions rather than store indices.
	compact bool
	carena  []byte
	blocks  []blockRef
	count   int      // events resident in compact mode
	lastAt  des.Time // last appended event's time, for the tail-extend check
	enc     *encoder
	decoded []Event // pooled decode scratch backing the merged view
	stats   CompactStats
}

// eventBufPool recycles collector arenas across simulation cells: a
// Runner sweep builds and discards one Collector per cell, and reusing the
// grown backing arrays removes that churn from the hot loop.
var eventBufPool = sync.Pool{New: func() any { return new([]Event) }}

// NewCollector returns an empty trace collector backed by a pooled arena.
func NewCollector() *Collector {
	buf := eventBufPool.Get().(*[]Event)
	return &Collector{
		funcs:   make(map[int32]map[int32]string),
		store:   (*buf)[:0],
		mergedN: -1,
	}
}

// Release returns the collector's arena — and, in compact mode, the byte
// arena, the encoder with its suppression dictionary, and the decode
// scratch — to the shared pools, and deletes any spill file. The caller
// declares that neither the collector nor any slice obtained from Events
// will be used again.
func (col *Collector) Release() {
	if col.store != nil {
		buf := col.store[:0]
		eventBufPool.Put(&buf)
	}
	col.store, col.segs, col.merged = nil, nil, nil
	col.mergedN = -1
	if col.carena != nil {
		b := col.carena[:0]
		byteArenaPool.Put(&b)
		col.carena = nil
	}
	if col.enc != nil {
		encoderPool.Put(col.enc)
		col.enc = nil
	}
	if col.decoded != nil {
		d := col.decoded[:0]
		eventBufPool.Put(&d)
		col.decoded = nil
	}
	col.blocks = nil
	col.count, col.lastAt = 0, 0
	col.compact = false
	col.stats = CompactStats{}
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

// Append merges a rank's event buffer into the trace. The batch is copied
// into the arena and carved into non-decreasing-time segments; a batch that
// continues the previous segment's timeline extends it in place.
func (col *Collector) Append(events []Event) {
	if len(events) == 0 {
		return
	}
	if col.compact {
		col.appendCompact(events, nil, 0, 0)
		return
	}
	start := len(col.store)
	col.store = append(col.store, events...)
	col.carve(start)
}

// carve partitions the arena entries from start on into segments, as
// Append describes, and lets a spilling collector stream its arena out.
func (col *Collector) carve(start int) {
	for i := start; i < len(col.store); {
		j := i + 1
		for j < len(col.store) && col.store[j].At >= col.store[j-1].At {
			j++
		}
		if n := len(col.segs); n > 0 && i > 0 && col.store[i].At >= col.store[i-1].At {
			col.segs[n-1].end = j
		} else {
			col.segs = append(col.segs, segRange{start: i, end: j})
		}
		i = j
	}
	if col.spill != nil {
		col.spill.maybeSpill(col)
	}
}

// Events returns the merged events sorted by timestamp (stable: ties keep
// rank/tid/insertion order). The view is cached between Appends; callers
// must treat it as read-only.
func (col *Collector) Events() []Event {
	if col.mergedN != col.residentLen() {
		col.rebuildMerged()
	}
	return col.merged
}

// residentLen is the number of events held in memory: arena entries for a
// verbatim collector, encoded-block event counts for a compact one.
func (col *Collector) residentLen() int {
	if col.compact {
		return col.count
	}
	return len(col.store)
}

// rebuildMerged recomputes the cached time-ordered view. Each segment is
// already sorted by (At, insertion index) — times non-decreasing, indices
// strictly increasing — so a k-way merge keyed on (At, cursor index)
// reproduces exactly the stable sort of the insertion-ordered stream. A
// spilling collector first restores the on-disk prefix (see spill.go); the
// merge then runs over disk and arena segments together. A compact
// collector first decodes its blocks (and spilled frames) into the pooled
// scratch — segment boundaries are positions where time decreases, so the
// decoded stream merges exactly like the verbatim one.
func (col *Collector) rebuildMerged() {
	col.mergedN = col.residentLen()
	store, segs := col.store, col.segs
	if col.compact {
		store, segs = col.decodedCombined()
	} else if col.spill != nil && col.spill.count > 0 {
		store, segs = col.spill.combined(col)
	}
	switch len(segs) {
	case 0:
		col.merged = nil
		return
	case 1:
		// Single timeline: the arena itself is the merged view. The full
		// slice expression stops callers from appending into the arena.
		s := segs[0]
		col.merged = store[s.start:s.end:s.end]
		return
	}
	col.merged = mergeSegs(store, segs)
}

// mergeSegs k-way merges time-sorted segments of store, keyed on
// (At, cursor index), producing the stable time order of the insertion-
// ordered stream.
func mergeSegs(store []Event, segs []segRange) []Event {
	cur := make([]int, len(segs))
	heap := make([]int, 0, len(segs))
	less := func(a, b int) bool {
		ea, eb := &store[cur[a]], &store[cur[b]]
		if ea.At != eb.At {
			return ea.At < eb.At
		}
		return cur[a] < cur[b]
	}
	siftDown := func(i int) {
		for {
			c := 2*i + 1
			if c >= len(heap) {
				return
			}
			if c+1 < len(heap) && less(heap[c+1], heap[c]) {
				c++
			}
			if !less(heap[c], heap[i]) {
				return
			}
			heap[i], heap[c] = heap[c], heap[i]
			i = c
		}
	}
	total := 0
	for si, s := range segs {
		cur[si] = s.start
		heap = append(heap, si)
		total += s.end - s.start
	}
	for i := len(heap)/2 - 1; i >= 0; i-- {
		siftDown(i)
	}
	out := make([]Event, 0, total)
	for len(heap) > 0 {
		si := heap[0]
		out = append(out, store[cur[si]])
		cur[si]++
		if cur[si] == segs[si].end {
			heap[0] = heap[len(heap)-1]
			heap = heap[:len(heap)-1]
		}
		siftDown(0)
	}
	return out
}

// Len reports the number of collected events, spilled ones included.
func (col *Collector) Len() int {
	n := col.residentLen()
	if col.spill != nil {
		n += col.spill.count
	}
	return n
}

// Bytes reports the trace's size: the fixed per-event record size for a
// verbatim collector, the encoded payload volume (resident and spilled)
// for a compact one.
func (col *Collector) Bytes() int {
	if col.compact {
		return col.stats.Bytes
	}
	return col.Len() * EventBytes
}

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

// WriteTrace writes the trace in the textual VGV-trace format:
//
//	# vgvtrace 1
//	FUNC <rank> <id> <name>
//	EVT <ns> <rank> <tid> <kind> <id> <a> <b>
//
// Each record is formatted into one reused line buffer with strconv
// appends, so the dump allocates nothing per record.
func (col *Collector) WriteTrace(w io.Writer) error {
	bw := bufio.NewWriterSize(w, 64<<10)
	line := make([]byte, 0, 128)
	if _, err := bw.WriteString("# vgvtrace 1\n"); err != nil {
		return err
	}
	for _, rank := range col.Ranks() {
		t := col.funcs[rank]
		ids := make([]int32, 0, len(t))
		for id := range t {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		for _, id := range ids {
			line = append(line[:0], "FUNC "...)
			line = strconv.AppendInt(line, int64(rank), 10)
			line = append(line, ' ')
			line = strconv.AppendInt(line, int64(id), 10)
			line = append(line, ' ')
			line = append(line, t[id]...)
			line = append(line, '\n')
			if _, err := bw.Write(line); err != nil {
				return err
			}
		}
	}
	events := col.Events()
	for i := range events {
		if _, err := bw.Write(appendEventLine(line[:0], &events[i])); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// appendEventLine appends e's EVT record, newline included, to b.
func appendEventLine(b []byte, e *Event) []byte {
	b = append(b, "EVT "...)
	b = strconv.AppendInt(b, int64(e.At), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.Rank), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.TID), 10)
	b = append(b, ' ')
	b = append(b, e.Kind.String()...)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(e.ID), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.A, 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, e.B, 10)
	return append(b, '\n')
}

// ReadTrace parses a trace produced by WriteTrace.
//
// A line's fields are what strings.Fields makes of it. Lines of ASCII
// bytes — every EVT line WriteTrace produces — are split in place on the
// scanner's buffer and their decimals parsed without allocating; a line
// holding any byte >= 0x80 is split by strings.Fields itself, so Unicode
// whitespace separates fields there. Ranks, thread ids and function ids
// must fit in int32. Events are appended straight into the collector's
// arena.
func ReadTrace(r io.Reader) (*Collector, error) {
	col := NewCollector()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var fields [][]byte
	line := 0
	for sc.Scan() {
		line++
		fields = splitFields(fields[:0], sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if err := col.parseRecord(fields, line); err != nil {
			col.Release()
			return nil, err
		}
	}
	col.carve(0)
	return col, sc.Err()
}

// asciiSpace marks the ASCII bytes unicode.IsSpace accepts.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// splitFields appends line's whitespace-separated fields to dst. ASCII
// fields alias line; a line with a non-ASCII byte goes through
// strings.Fields.
func splitFields(dst [][]byte, line []byte) [][]byte {
	n, start := len(dst), -1
	for i, c := range line {
		switch {
		case c >= utf8.RuneSelf:
			dst = dst[:n]
			for _, f := range strings.Fields(string(line)) {
				dst = append(dst, []byte(f))
			}
			return dst
		case asciiSpace[c]:
			if start >= 0 {
				dst = append(dst, line[start:i])
				start = -1
			}
		case start < 0:
			start = i
		}
	}
	if start >= 0 {
		dst = append(dst, line[start:])
	}
	return dst
}

// parseRecord applies one FUNC or EVT record to col.
func (col *Collector) parseRecord(fields [][]byte, line int) error {
	switch string(fields[0]) {
	case "FUNC":
		if len(fields) < 4 {
			return fmt.Errorf("vt: trace line %d: short FUNC record", line)
		}
		rank, err1 := parseDecimal(fields[1])
		id, err2 := parseDecimal(fields[2])
		if err1 != nil || err2 != nil {
			return fmt.Errorf("vt: trace line %d: bad FUNC ids", line)
		}
		if !fitsInt32(rank) || !fitsInt32(id) {
			return fmt.Errorf("vt: trace line %d: FUNC ids out of int32 range", line)
		}
		col.funcTable(int32(rank), 0)[int32(id)] = string(bytes.Join(fields[3:], []byte{' '}))
	case "EVT":
		if len(fields) != 8 {
			return fmt.Errorf("vt: trace line %d: EVT needs 8 fields, has %d", line, len(fields))
		}
		var nums [6]int64
		for i, f := range [6][]byte{fields[1], fields[2], fields[3], fields[5], fields[6], fields[7]} {
			v, err := parseDecimal(f)
			if err != nil {
				return fmt.Errorf("vt: trace line %d: %v", line, err)
			}
			nums[i] = v
		}
		if !fitsInt32(nums[1]) || !fitsInt32(nums[2]) || !fitsInt32(nums[3]) {
			return fmt.Errorf("vt: trace line %d: EVT rank/tid/id out of int32 range", line)
		}
		kind, ok := kindFromBytes(fields[4])
		if !ok {
			return fmt.Errorf("vt: trace line %d: unknown kind %q", line, fields[4])
		}
		col.store = append(col.store, Event{
			At: des.Time(nums[0]), Rank: int32(nums[1]), TID: int32(nums[2]),
			Kind: kind, ID: int32(nums[3]), A: nums[4], B: nums[5],
		})
	default:
		return fmt.Errorf("vt: trace line %d: unknown record %q", line, fields[0])
	}
	return nil
}

// fitsInt32 reports whether v fits an int32 record field.
func fitsInt32(v int64) bool { return v >= math.MinInt32 && v <= math.MaxInt32 }

// parseDecimal is strconv.ParseInt(string(b), 10, 64) without the
// allocation on the common input: an optional '-' and at most 18 digits,
// which cannot overflow. Anything else goes to strconv, so the accepted
// syntax and the error values are exactly ParseInt's.
func parseDecimal(b []byte) (int64, error) {
	digits := b
	if len(digits) > 0 && digits[0] == '-' {
		digits = digits[1:]
	}
	if len(digits) == 0 || len(digits) > 18 {
		return strconv.ParseInt(string(b), 10, 64)
	}
	var v int64
	for _, c := range digits {
		if c < '0' || c > '9' {
			return strconv.ParseInt(string(b), 10, 64)
		}
		v = v*10 + int64(c-'0')
	}
	if len(digits) < len(b) {
		v = -v
	}
	return v, nil
}
