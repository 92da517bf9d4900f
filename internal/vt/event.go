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
	if len(b) == 0 {
		return 0, false
	}
	for k, n := range kindNames {
		// Length and first byte tell the names apart, so at most one
		// candidate reaches the full comparison.
		if len(n) == len(b) && n[0] == b[0] && n == string(b) {
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
// where the trace leaves memory — spill files and binary trace files — one
// block per Append batch.
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
// only a head piece left by OverflowDropOldest and the partly filled
// current chunk are copied, and the current chunk stays with the thread
// for reuse.
func (col *Collector) appendThread(tb *threadBuf) {
	if tb.n == 0 {
		return
	}
	start, cur := col.store.next(), tb.cur
	if len(tb.full) > 0 {
		if first := tb.full[0]; tb.head > 0 {
			col.store.copyIn(first[tb.head:])
			freeChunk(first)
		} else {
			start = len(col.store) << chunkShift
			col.store = append(col.store, first)
		}
		col.store = append(col.store, tb.full[1:]...)
	} else {
		cur = cur[tb.head:]
	}
	col.store.copyIn(cur)
	col.addBatch(start, tb.n)
	clear(tb.full)
	tb.full, tb.cur, tb.head, tb.n = tb.full[:0], tb.cur[:0], 0, 0
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
		col.viewOwn = mergeSegs(all, segs, total)
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
	for _, ch := range col.Ordered().Chunks() {
		for i := range ch {
			if _, err := bw.Write(appendEventLine(line[:0], &ch[i])); err != nil {
				return err
			}
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
// must fit in int32. EVT lines of the shape WriteTrace writes take a
// one-pass fast path (parseEventLine). Events are parsed straight into the
// collector's pooled chunks, one batch per chunk. A read or scan failure
// (a line over 1 MiB, say) releases the collector and returns only the
// error.
func ReadTrace(r io.Reader) (*Collector, error) {
	col := NewCollector()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 64<<10), 1<<20)
	var fields [][]byte
	var ev Event
	line := 0
	for sc.Scan() {
		line++
		if parseEventLine(sc.Bytes(), &ev) {
			col.store.push(ev)
			continue
		}
		fields = splitFields(fields[:0], sc.Bytes())
		if len(fields) == 0 || fields[0][0] == '#' {
			continue
		}
		if err := col.parseRecord(fields, line); err != nil {
			col.Release()
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		col.Release()
		return nil, err
	}
	for ci, ch := range col.store {
		col.batches = append(col.batches, segRange{ci << chunkShift, ci<<chunkShift + len(ch)})
		col.n += len(ch)
	}
	if col.n > 0 {
		col.carve(0, col.store.end())
	}
	return col, nil
}

// Byte classes of the EVT fast path: one table lookup tells a separator
// from a field byte and from a byte the fast path leaves to strings.Fields.
const (
	classField byte = iota
	classSpace
	classNonASCII
)

var byteClass = func() (t [256]byte) {
	for c := range t {
		switch {
		case c >= utf8.RuneSelf:
			t[c] = classNonASCII
		case asciiSpace[c]:
			t[c] = classSpace
		}
	}
	return t
}()

// parseEventLine parses line into *e in one pass, tokenising and
// converting together, when it is an EVT record of the shape WriteTrace
// writes: ASCII only, "EVT" and seven fields, plain decimals of at most 18
// digits with an optional '-', ids in int32 range and a known kind.
// Anything else — a '+' sign, an overlong number, a stray byte — reports
// false and is left to the general path, which accepts or rejects it as it
// always did.
func parseEventLine(line []byte, e *Event) bool {
	i, n := 0, len(line)
	for i < n && byteClass[line[i]] == classSpace {
		i++
	}
	if n-i < 3 || line[i] != 'E' || line[i+1] != 'V' || line[i+2] != 'T' {
		return false
	}
	i += 3
	var nums [6]int64
	for f, k := 0, 0; f < 7; f++ {
		if i >= n || byteClass[line[i]] != classSpace {
			return false
		}
		for i < n && byteClass[line[i]] == classSpace {
			i++
		}
		start := i
		if f == 3 {
			for i < n && byteClass[line[i]] == classField {
				i++
			}
			var ok bool
			if e.Kind, ok = kindFromBytes(line[start:i]); !ok {
				return false
			}
			continue
		}
		neg := i < n && line[i] == '-'
		if neg {
			i++
			start++
		}
		var v int64
		for i < n && line[i]-'0' < 10 {
			v = v*10 + int64(line[i]-'0')
			i++
		}
		if i == start || i-start > 18 {
			return false
		}
		if neg {
			v = -v
		}
		nums[k] = v
		k++
	}
	for ; i < n; i++ {
		if byteClass[line[i]] != classSpace {
			return false
		}
	}
	if !fitsInt32(nums[1]) || !fitsInt32(nums[2]) || !fitsInt32(nums[3]) {
		return false
	}
	e.At, e.Rank, e.TID, e.ID, e.A, e.B = des.Time(nums[0]), int32(nums[1]), int32(nums[2]), int32(nums[3]), nums[4], nums[5]
	return true
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
		col.store.push(Event{
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
