package vt

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"sort"
	"sync"

	"dynprof/internal/des"
	"dynprof/internal/par"
)

// This file implements the collector's online redundancy-suppression layer
// and the compact binary trace encoding (format version 2). HPC kernel
// traces are dominated by repeated calling-context/loop sequences (Arafa et
// al., "Redundancy Suppression In Time-Aware Dynamic Binary
// Instrumentation"): a loop body that enters and exits the same functions
// with the same per-iteration time deltas compresses to one parameterized
// repeat record instead of N verbatim events, with exact reconstruction on
// decode.
//
// The encoding is applied where the trace leaves memory: a spill file holds
// one block per Collector Append batch, and a trace file one block per
// chunkEvents events of the time-ordered view, while the collector itself
// keeps the verbatim chunk store (event.go, chunk.go).
//
//	block   := op*                      (the event count travels out of band,
//	                                     in the frame header)
//	op      := literal | repeat
//	literal := tag [kind] id dAt [dRank dTid] [A B]
//	repeat  := 0x80|patternLen  uvarint(copies)
//
// The literal tag byte has bit 7 clear; bits 0-3 hold the kind (15 = escape,
// a uvarint kind follows), bit 4 marks a non-zero A/B payload (two zigzag
// varints), bit 5 a lane change (zigzag varint rank and tid deltas), and
// bit 6 a first-seen function id (a zigzag varint raw id follows and is
// appended to the block's id dictionary; otherwise a uvarint dictionary
// index). dAt is the zigzag varint time delta against the previous event in
// the block (the first event's delta is its absolute time).
//
// A repeat op says: the previous patternLen decoded events — tuples AND
// time deltas — occur `copies` more times. The encoder only emits it when
// the match is exact elementwise, so decoding reproduces the verbatim
// stream bit for bit: count, period (the sum of the pattern's deltas) and
// per-iteration deltas are all implied by the pattern.

// Compact-format constants.
const (
	// CompactVersion is the format-version byte of compact blocks, spill
	// files and binary trace files written by this package.
	CompactVersion = 2

	// maxPattern bounds the repeat detector's pattern length (loop bodies;
	// must stay below 128 so the length fits the repeat tag byte).
	maxPattern = 64

	// maxDirectID bounds the ids tracked by the encoder's direct-index
	// dictionary map; larger (or negative) ids are legal but re-encoded
	// raw on every occurrence.
	maxDirectID = 1 << 16

	// maxEventBytes is the longest encoding the decoder accepts for one
	// event: a literal's tag byte plus seven varints. A frame claiming
	// more block bytes than count*maxEventBytes is impossible.
	maxEventBytes = 1 + 7*binary.MaxVarintLen64
)

// Literal tag bits.
const (
	tagKindMask byte = 0x0f
	tagKindEsc  byte = 0x0f
	tagAB       byte = 1 << 4
	tagLane     byte = 1 << 5
	tagNewID    byte = 1 << 6
	tagRepeat   byte = 1 << 7
)

// FormatError reports an encoded artifact — spill file, binary trace file
// or compact block — whose magic, version or structure cannot be
// interpreted. Readers return it instead of silently misparsing records
// written by a different format revision.
type FormatError struct {
	// What names the artifact: "spill file", "trace file", "compact block".
	What string
	// Version is the unrecognised format version, or -1 for a structural
	// (corruption) failure.
	Version int
	// Detail describes a structural failure.
	Detail string
}

func (e *FormatError) Error() string {
	if e.Version >= 0 {
		return fmt.Sprintf("vt: %s: unsupported format version %d (want %d)", e.What, e.Version, CompactVersion)
	}
	return fmt.Sprintf("vt: %s: %s", e.What, e.Detail)
}

// CompactStats summarises a collector's compact encoding: how many events
// went in, how many encoded records (literal plus repeat ops) came out, and
// the encoded byte volume against the verbatim baseline.
type CompactStats struct {
	// EventsIn is the number of events appended to the collector.
	EventsIn int
	// Records is the number of encoded ops holding them.
	Records int
	// Repeats is the number of parameterized repeat records among Records.
	Repeats int
	// Bytes is the encoded payload volume, resident and spilled.
	Bytes int
}

// add counts one encoded block of count events.
func (st *CompactStats) add(count, bytes, recs, reps int) {
	st.EventsIn += count
	st.Records += recs
	st.Repeats += reps
	st.Bytes += bytes
}

// VerbatimBytes is the volume the same events occupy at the fixed
// per-event record size.
func (st CompactStats) VerbatimBytes() int { return st.EventsIn * EventBytes }

// Saved is the byte volume suppression removed.
func (st CompactStats) Saved() int { return st.VerbatimBytes() - st.Bytes }

// Ratio is the compression factor (verbatim/compact; 0 when empty).
func (st CompactStats) Ratio() float64 {
	if st.Bytes == 0 {
		return 0
	}
	return float64(st.VerbatimBytes()) / float64(st.Bytes)
}

// Pools recycling the encoder (dictionary map and block scratch included),
// the decoder scratch and the block buffers of the trace-file pipelines
// across collectors.
var (
	encoderPool = sync.Pool{New: func() any { return new(encoder) }}
	decoderPool = sync.Pool{New: func() any { return new(decoder) }}
	blockPool   = sync.Pool{New: func() any { return new([]byte) }}
)

// CompactStats returns the suppression counters of the trace's compact
// encoding, one block per Append batch: spilled batches are counted when
// they spill, resident ones are encoded here. The result is cached until
// the next Append.
func (col *Collector) CompactStats() CompactStats {
	if !col.statsOK {
		var st CompactStats
		if col.spill != nil {
			st = col.spill.stats
		}
		col.eachBlock(func(count int, block []byte, recs, reps int) {
			st.add(count, len(block), recs, reps)
		})
		col.stats, col.statsOK = st, true
	}
	return col.stats
}

// eachBlock encodes every resident Append batch, in insertion order, as one
// compact block with a pooled encoder and hands it to fn. A batch that
// spans several chunks is gathered into the encoder's event scratch first,
// so the block is the same as for one contiguous slice. The block is
// scratch, valid only during the call.
func (col *Collector) eachBlock(fn func(count int, block []byte, recs, reps int)) {
	enc := encoderPool.Get().(*encoder)
	defer encoderPool.Put(enc)
	for _, b := range col.batches {
		evs := col.store.contiguous(b.start, b.end, &enc.events)
		var recs, reps int
		enc.scratch, recs, reps = enc.encodeBlock(enc.scratch[:0], evs)
		fn(len(evs), enc.scratch, recs, reps)
	}
}

// encoder turns event batches into compact blocks. The id dictionary is a
// direct-index map (ids are small dense ints) reset in O(ids assigned) per
// block; encoders are pooled via encoderPool.
type encoder struct {
	idIdx    []int32 // id -> dictionary index + 1; 0 = unassigned
	assigned []int32 // ids assigned in the current block, for cheap reset
	dictN    int
	scratch  []byte  // block buffer reused by eachBlock
	events   []Event // gathers a batch or frame that spans chunks into one block

	// The repeat detector's tables. head maps an event's (tuple, Δt) hash
	// to the latest position holding it, and prev chains each position to
	// the previous one with the same hash, so only earlier positions that
	// can match are tried as periods. until[l] memoises the end of the
	// latest elementwise match of period l. Positions are absolute: each
	// block starts maxPattern+1 past the end of the one before, so entries
	// left by earlier blocks lie beyond every period and need no reset.
	head  [1 << hashBits]int
	prev  [2 * maxPattern]int // ring over positions: all within maxPattern of the current one
	until [maxPattern + 1]int
	base  int // absolute position of the current block's first event
}

// hashBits sizes the repeat detector's hash table.
const hashBits = 12

// reset clears the per-block dictionary.
func (e *encoder) reset() {
	for _, id := range e.assigned {
		e.idIdx[id] = 0
	}
	e.assigned = e.assigned[:0]
	e.dictN = 0
}

// deltaAt is event i's time delta against its predecessor in the batch
// (the first event is relative to the block base, time zero).
func deltaAt(evs []Event, i int) des.Time {
	if i == 0 {
		return evs[0].At
	}
	return evs[i].At - evs[i-1].At
}

// evEq reports whether positions a and b carry the same tuple AND the same
// time delta — the exactness requirement that makes repeat records
// lossless.
func evEq(evs []Event, a, b int) bool {
	x, y := &evs[a], &evs[b]
	return x.Kind == y.Kind && x.ID == y.ID && x.Rank == y.Rank && x.TID == y.TID &&
		x.A == y.A && x.B == y.B && deltaAt(evs, a) == deltaAt(evs, b)
}

// matchRun is the length of the elementwise match of evs[i:] against
// evs[i-l:] — how far the stream keeps repeating with period l.
func matchRun(evs []Event, i, l int) int {
	k := 0
	for i+k < len(evs) && evEq(evs, i+k, i+k-l) {
		k++
	}
	return k
}

// evHash hashes what evEq compares at position i into hashBits bits.
func evHash(evs []Event, i int) int {
	e := &evs[i]
	h := uint64(deltaAt(evs, i))*0x9e3779b97f4a7c15 ^
		uint64(e.A)*0xc2b2ae3d27d4eb4f ^
		uint64(e.B)*0x165667b19e3779f9 ^
		(uint64(uint32(e.Rank))<<32|uint64(uint32(e.TID)))*0xd6e8feb86659fd93 ^
		(uint64(e.Kind)<<32|uint64(uint32(e.ID)))*0xff51afd7ed558ccd
	h ^= h >> 29
	return int(h * 0x94d049bb133111eb >> (64 - hashBits))
}

// insert enters block position i, whose hash is h, into the hash chains.
func (e *encoder) insert(i, h int) {
	pos := e.base + i
	e.prev[pos%len(e.prev)] = e.head[h]
	e.head[h] = pos
}

// period returns the repeat to encode at position i, whose hash is h: the
// smallest period l with at least one full extra copy (a period-P loop is
// caught at l == P; larger l only splinters it) and how far the match
// runs, or zero for none. It tries the earlier positions with i's hash,
// nearest first, and every period's match length is computed once per
// match: inside an earlier match of period l, until[l]-i is the answer.
func (e *encoder) period(evs []Event, i, h int) (l, run int) {
	pos := e.base + i
	for j := e.head[h]; pos-j <= min(i, maxPattern); j = e.prev[j%len(e.prev)] {
		l := pos - j
		if !evEq(evs, i, i-l) {
			continue
		}
		r := e.until[l] - pos
		if r <= 0 {
			r = matchRun(evs, i, l)
			e.until[l] = pos + r
		}
		if r >= l {
			return l, r
		}
	}
	return 0, 0
}

// encodeBlock appends one block encoding evs to dst, returning the grown
// buffer and the op counts (records total, repeat records among them).
func (e *encoder) encodeBlock(dst []byte, evs []Event) (out []byte, recs, reps int) {
	e.reset()
	e.base += maxPattern + 1
	var prevAt des.Time
	var prevRank, prevTid int32
	for i := 0; i < len(evs); {
		h := evHash(evs, i)
		if bestL, run := e.period(evs, i, h); bestL > 0 {
			n := run / bestL * bestL
			dst = append(dst, tagRepeat|byte(bestL))
			dst = binary.AppendUvarint(dst, uint64(n/bestL))
			last := &evs[i+n-1]
			prevAt, prevRank, prevTid = last.At, last.Rank, last.TID
			// Only the repeat's last maxPattern positions can be periods
			// of a later one.
			for j := max(i, i+n-maxPattern); j < i+n; j++ {
				e.insert(j, evHash(evs, j))
			}
			i += n
			recs++
			reps++
			continue
		}
		e.insert(i, h)

		ev := &evs[i]
		tag := byte(0)
		kindEsc := false
		if byte(ev.Kind) < tagKindEsc {
			tag |= byte(ev.Kind)
		} else {
			tag |= tagKindEsc
			kindEsc = true
		}
		hasAB := ev.A != 0 || ev.B != 0
		if hasAB {
			tag |= tagAB
		}
		lane := ev.Rank != prevRank || ev.TID != prevTid
		if lane {
			tag |= tagLane
		}
		newID := true
		var dictIdx uint64
		direct := ev.ID >= 0 && ev.ID < maxDirectID
		if direct {
			if int(ev.ID) >= len(e.idIdx) {
				grown := make([]int32, ev.ID+1)
				copy(grown, e.idIdx)
				e.idIdx = grown
			}
			if v := e.idIdx[ev.ID]; v != 0 {
				newID = false
				dictIdx = uint64(v - 1)
			}
		}
		if newID {
			tag |= tagNewID
		}
		dst = append(dst, tag)
		if kindEsc {
			dst = binary.AppendUvarint(dst, uint64(ev.Kind))
		}
		if newID {
			dst = binary.AppendVarint(dst, int64(ev.ID))
			if direct {
				e.idIdx[ev.ID] = int32(e.dictN) + 1
				e.assigned = append(e.assigned, ev.ID)
			}
			// Out-of-range ids still occupy a dictionary slot: the decoder
			// appends unconditionally, and indices must agree.
			e.dictN++
		} else {
			dst = binary.AppendUvarint(dst, dictIdx)
		}
		dst = binary.AppendVarint(dst, int64(ev.At-prevAt))
		if lane {
			dst = binary.AppendVarint(dst, int64(ev.Rank-prevRank))
			dst = binary.AppendVarint(dst, int64(ev.TID-prevTid))
			prevRank, prevTid = ev.Rank, ev.TID
		}
		if hasAB {
			dst = binary.AppendVarint(dst, ev.A)
			dst = binary.AppendVarint(dst, ev.B)
		}
		prevAt = ev.At
		recs++
		i++
	}
	e.base += len(evs)
	return dst, recs, reps
}

// decoder reconstructs blocks; the dictionary scratch is pooled.
type decoder struct {
	dict []int32
}

// block decodes one compact block of `count` events from src, appending the
// reconstructed events to dst. The decoded suffix of dst doubles as the
// pattern history for repeat ops.
func (d *decoder) block(src []byte, count int, dst []Event) (out []Event, recs, reps int, err error) {
	corrupt := func(detail string) ([]Event, int, int, error) {
		return dst, recs, reps, &FormatError{What: "compact block", Version: -1, Detail: detail}
	}
	d.dict = d.dict[:0]
	blockStart := len(dst)
	var prevAt des.Time
	var prevRank, prevTid int32
	p := 0
	readU := func() (uint64, bool) {
		v, n := binary.Uvarint(src[p:])
		if n <= 0 {
			return 0, false
		}
		p += n
		return v, true
	}
	readS := func() (int64, bool) {
		v, n := binary.Varint(src[p:])
		if n <= 0 {
			return 0, false
		}
		p += n
		return v, true
	}
	for n := 0; n < count; {
		if p >= len(src) {
			return corrupt("truncated block")
		}
		tag := src[p]
		p++
		if tag&tagRepeat != 0 {
			l := int(tag &^ tagRepeat)
			copies, ok := readU()
			if !ok {
				return corrupt("truncated repeat record")
			}
			// copies is checked as unsigned before any conversion: a
			// huge value must not wrap past the count bound.
			if l == 0 || copies == 0 || len(dst)-blockStart < l || copies > uint64((count-n)/l) {
				return corrupt("repeat record out of range")
			}
			for c := uint64(0); c < copies; c++ {
				start := len(dst) - l
				for j := 0; j < l; j++ {
					ev := dst[start+j]
					var delta des.Time
					if start+j == blockStart {
						delta = ev.At
					} else {
						delta = ev.At - dst[start+j-1].At
					}
					ev.At = prevAt + delta
					prevAt = ev.At
					dst = append(dst, ev)
				}
			}
			last := &dst[len(dst)-1]
			prevRank, prevTid = last.Rank, last.TID
			n += int(copies) * l
			recs++
			reps++
			continue
		}
		var ev Event
		ev.Kind = Kind(tag & tagKindMask)
		if byte(ev.Kind) == tagKindEsc {
			raw, ok := readU()
			if !ok {
				return corrupt("truncated kind escape")
			}
			ev.Kind = Kind(raw)
		}
		if tag&tagNewID != 0 {
			raw, ok := readS()
			if !ok {
				return corrupt("truncated raw id")
			}
			ev.ID = int32(raw)
			d.dict = append(d.dict, ev.ID)
		} else {
			idx, ok := readU()
			if !ok {
				return corrupt("truncated dictionary index")
			}
			if idx >= uint64(len(d.dict)) {
				return corrupt("dictionary index out of range")
			}
			ev.ID = d.dict[idx]
		}
		dAt, ok := readS()
		if !ok {
			return corrupt("truncated time delta")
		}
		prevAt += des.Time(dAt)
		ev.At = prevAt
		if tag&tagLane != 0 {
			dRank, ok1 := readS()
			dTid, ok2 := readS()
			if !ok1 || !ok2 {
				return corrupt("truncated lane delta")
			}
			prevRank += int32(dRank)
			prevTid += int32(dTid)
		}
		ev.Rank, ev.TID = prevRank, prevTid
		if tag&tagAB != 0 {
			a, ok1 := readS()
			b, ok2 := readS()
			if !ok1 || !ok2 {
				return corrupt("truncated A/B payload")
			}
			if !peerFits(ev.Kind, a) {
				return corrupt("message peer out of int32 range")
			}
			ev.A, ev.B = a, b
		}
		dst = append(dst, ev)
		recs++
		n++
	}
	if p != len(src) {
		return corrupt("trailing bytes after final record")
	}
	return dst, recs, reps, nil
}

// Trace-file format (version 2), the one file WriteTrace writes and
// ReadTrace reads:
//
//	"VGVC" version(1)
//	uvarint nRanks { svarint rank, uvarint nFuncs { svarint id, uvarint len, name } }
//	uvarint totalEvents
//	frame* where frame := uvarint count, uvarint blockLen, block
//
// WriteTrace cuts the frames from the time-ordered view, chunkEvents
// events each and only the last one shorter, so the file is a function of
// the ordered events and the function tables alone.
const traceMagic = "VGVC"

// legacyTextMagic opens the textual traces older builds wrote; ReadTrace
// names them instead of reporting a bad magic.
const legacyTextMagic = "# vgvtrace"

// traceFormatError is a structural failure of a trace file.
func traceFormatError(detail string) *FormatError {
	return &FormatError{What: "trace file", Version: -1, Detail: detail}
}

// WriteTrace writes the trace file: the function tables, then the
// time-ordered view (Ordered) as compact frames. A spilling collector's
// disk prefix is decoded and merged like any view; a spill failure is
// returned instead of writing a partial trace. Reading the file back
// reconstructs a collector whose ordered view — and therefore every VGV
// rendering — is identical to the source's, and writing that collector
// again reproduces the file.
func (col *Collector) WriteTrace(w io.Writer) error {
	view := col.Ordered()
	if err := col.SpillErr(); err != nil {
		return err
	}
	bw := bufio.NewWriterSize(w, 64<<10)
	bw.WriteString(traceMagic)
	bw.WriteByte(CompactVersion)
	var scratch [binary.MaxVarintLen64]byte
	writeU := func(v uint64) { bw.Write(scratch[:binary.PutUvarint(scratch[:], v)]) }
	writeS := func(v int64) { bw.Write(scratch[:binary.PutVarint(scratch[:], v)]) }

	ranks := col.Ranks()
	writeU(uint64(len(ranks)))
	for _, rank := range ranks {
		t := col.funcs[rank]
		ids := make([]int32, 0, len(t))
		for id := range t {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		writeS(int64(rank))
		writeU(uint64(len(ids)))
		for _, id := range ids {
			writeS(int64(id))
			writeU(uint64(len(t[id])))
			bw.WriteString(t[id])
		}
	}

	writeU(uint64(view.Len()))
	// Frames are encoded on the workers, each with its own pooled
	// encoder, into the block buffer of their pipeline slot, and written
	// in frame order.
	frames := view.frames()
	encs := make([]*encoder, par.Workers())
	for w := range encs {
		encs[w] = encoderPool.Get().(*encoder)
		defer encoderPool.Put(encs[w])
	}
	blocks := make([]*[]byte, 2*len(encs))
	for s := range blocks {
		blocks[s] = blockPool.Get().(*[]byte)
		defer blockPool.Put(blocks[s])
	}
	err := par.Pipeline(len(encs),
		func(i, _ int) (bool, error) { return i < len(frames), nil },
		func(i, slot, w int) error {
			enc, evs := encs[w], frames[i][0]
			if len(frames[i]) > 1 {
				// A frame that spans view chunks is gathered first.
				enc.events = enc.events[:0]
				for _, p := range frames[i] {
					enc.events = append(enc.events, p...)
				}
				evs = enc.events
			}
			*blocks[slot], _, _ = enc.encodeBlock((*blocks[slot])[:0], evs)
			return nil
		},
		func(i, slot int) error {
			writeU(uint64(frameLen(frames[i])))
			writeU(uint64(len(*blocks[slot])))
			_, err := bw.Write(*blocks[slot])
			return err
		})
	if err != nil {
		return err
	}
	return bw.Flush()
}

// frames cuts the view into the trace file's frames, chunkEvents events
// each and only the last one shorter, each given as the view pieces it
// spans: one piece when a view chunk holds the whole frame, as every full
// chunk of a merged view does.
func (v View) frames() [][][]Event {
	var frames [][][]Event
	var frame [][]Event
	n := 0
	for _, ch := range v.chunks {
		for len(ch) > 0 {
			k := min(chunkEvents-n, len(ch))
			frame, n, ch = append(frame, ch[:k]), n+k, ch[k:]
			if n == chunkEvents {
				frames, frame, n = append(frames, frame), nil, 0
			}
		}
	}
	if n > 0 {
		frames = append(frames, frame)
	}
	return frames
}

// frameLen reports the events of a frame given as pieces.
func frameLen(frame [][]Event) int {
	n := 0
	for _, p := range frame {
		n += len(p)
	}
	return n
}

// ReadTrace parses a trace file written by WriteTrace, appending each
// decoded frame to the collector as one batch; the frames of such a file
// are in time order, so the collector is one timeline and its ordered view
// is its own chunks. Frames are decoded on the workers straight into the
// chunks the collector adopts (see readFrames). A textual trace of an
// older build, an unrecognised magic or version, or a structurally
// impossible file is rejected with *FormatError; a failing reader's error
// is returned as itself. Buffers grow only with the bytes the input holds,
// never with a count its header claims.
func ReadTrace(r io.Reader) (*Collector, error) {
	src := &sourceReader{r: r}
	br := bufio.NewReader(src)
	var buf bytes.Buffer // a function name
	col, total, err := readTraceHeader(br, &buf)
	if err != nil {
		return nil, src.failure("trace file", err)
	}
	if err := readFrames(src, br, total, "trace file", &col.store, col.addBatch); err != nil {
		col.Release()
		return nil, err
	}
	return col, nil
}

// frameJob is one frame in readFrames' pipeline.
type frameJob struct {
	count   int
	direct  bool    // decoded into a pooled chunk the chain adopts as it is
	block   *[]byte // the frame's block bytes, from blockPool
	readErr error   // the source's failure, if any, once the block was read
	out     []Event // the decoded events
	scratch []Event // decodes a frame that is not direct
}

// readFrames decodes a spill or trace file's frames (`uvarint count,
// uvarint blockLen, block`, total events in all) from br, which reads src,
// onto the end of c, passing each frame's first slot and count to added if
// non-nil. One walker reads the headers and blocks in order; a header is
// refused if its count is zero, exceeds the events due or
// MaxInt/maxEventBytes, or its block is longer than count events can
// encode. The workers decode the blocks. A frame that starts a chunk and
// fits one is decoded straight into a fresh pooled chunk, which the chain
// adopts as it is; any other frame is decoded into scratch and copied in,
// so c stays densely filled. (A first frame shorter than a chunk is copied
// too, so a small trace starts on a small chunk; see chain.room.) The
// error returned is the one a frame-by-frame walk would meet first,
// wrapped in the source's own failure as of that point
// (sourceReader.failure); errors name the file as what.
func readFrames(src *sourceReader, br *bufio.Reader, total uint64, what string, c *chain, added func(start, count int)) error {
	decs := make([]*decoder, par.Workers())
	for w := range decs {
		decs[w] = decoderPool.Get().(*decoder)
		defer decoderPool.Put(decs[w])
	}
	jobs := make([]frameJob, 2*len(decs))
	for s := range jobs {
		jobs[s].block = blockPool.Get().(*[]byte)
		defer blockPool.Put(jobs[s].block)
	}
	decoded, next := uint64(0), c.next() // next: the slot the next frame lands on
	return par.Pipeline(len(decs),
		func(_, slot int) (bool, error) {
			if decoded == total {
				return false, nil
			}
			count, err := binary.ReadUvarint(br)
			if err != nil {
				return false, src.failure(what, &FormatError{What: what, Version: -1, Detail: "truncated frame header"})
			}
			blen, err := binary.ReadUvarint(br)
			if err != nil || count == 0 || count > total-decoded || count > math.MaxInt/maxEventBytes || blen > count*maxEventBytes {
				return false, src.failure(what, &FormatError{What: what, Version: -1, Detail: "bad frame header"})
			}
			j := &jobs[slot]
			if err := readBlock(br, int(blen), j.block); err != nil {
				return false, src.failure(what, &FormatError{What: what, Version: -1, Detail: "truncated frame"})
			}
			j.count, j.readErr = int(count), src.err
			j.direct = next&chunkMask == 0 && count <= chunkEvents && (next > 0 || count == chunkEvents)
			decoded += count
			next += int(count)
			return true, nil
		},
		func(_, slot, w int) error {
			j := &jobs[slot]
			j.out = j.scratch[:0]
			if j.direct {
				j.out = newChunk()
			}
			var err error
			if j.out, _, _, err = decs[w].block(*j.block, j.count, j.out); err != nil {
				if j.direct {
					freeChunk(j.out)
				}
				j.out = nil
				return readFailure(j.readErr, what, err)
			}
			if !j.direct {
				j.scratch = j.out
			}
			return nil
		},
		func(_, slot int) error {
			j := &jobs[slot]
			start := c.next()
			if cap(*c) == 0 && j.count >= chunkEvents {
				// A first frame of a chunk or more starts the chain on a
				// pooled chunk rather than on one grown from minBuf.
				*c = make(chain, 0, chainHint)
			}
			if j.direct {
				*c = append(*c, j.out)
			} else {
				c.copyIn(j.out)
			}
			j.out = nil
			if added != nil {
				added(start, j.count)
			}
			return nil
		})
}

// readBlock consumes the next n bytes of br into *buf, which grows only as
// the bytes arrive.
func readBlock(br *bufio.Reader, n int, buf *[]byte) error {
	*buf = (*buf)[:0]
	for n > 0 {
		b, err := br.Peek(min(n, br.Size()))
		*buf = append(*buf, b...)
		br.Discard(len(b))
		if n -= len(b); err != nil && n > 0 {
			return err
		}
	}
	return nil
}

// sourceReader remembers the first error other than io.EOF its reader
// returns, so that a trace cut short by a failing reader is reported with
// that failure rather than as a truncated file.
type sourceReader struct {
	r   io.Reader
	err error
}

func (s *sourceReader) Read(p []byte) (int, error) {
	n, err := s.r.Read(p)
	if err != nil && err != io.EOF && s.err == nil {
		s.err = err
	}
	return n, err
}

// failure is the error to report for a read of the file named what that
// stopped with err: the reader's own failure if it had one, else err.
func (s *sourceReader) failure(what string, err error) error { return readFailure(s.err, what, err) }

// readFailure is the error to report for a read that stopped with err
// when the reader had failed with readErr (nil if it had not).
func readFailure(readErr error, what string, err error) error {
	if readErr != nil {
		return fmt.Errorf("vt: reading %s: %w", what, readErr)
	}
	return err
}

// readTraceHeader reads a trace file's header and function tables into a
// fresh collector, returning it with the file's claimed event total. buf
// is scratch for the names.
func readTraceHeader(br *bufio.Reader, buf *bytes.Buffer) (*Collector, uint64, error) {
	if peek, _ := br.Peek(len(legacyTextMagic)); string(peek) == legacyTextMagic {
		return nil, 0, traceFormatError("a textual trace (" + legacyTextMagic + "), which this build no longer reads")
	}
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, traceFormatError("truncated header")
	}
	if string(hdr[:4]) != traceMagic {
		return nil, 0, traceFormatError("bad magic")
	}
	if hdr[4] != CompactVersion {
		return nil, 0, &FormatError{What: "trace file", Version: int(hdr[4])}
	}
	col := NewCollector()
	corrupt := func(detail string) (*Collector, uint64, error) {
		col.Release()
		return nil, 0, traceFormatError(detail)
	}
	nRanks, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("truncated rank count")
	}
	for r := uint64(0); r < nRanks; r++ {
		rank, err := binary.ReadVarint(br)
		if err != nil {
			return corrupt("truncated rank id")
		}
		if !fitsInt32(rank) {
			return corrupt("rank id out of int32 range")
		}
		nFuncs, err := binary.ReadUvarint(br)
		if err != nil {
			return corrupt("truncated function count")
		}
		table := col.funcTable(int32(rank), 0)
		for f := uint64(0); f < nFuncs; f++ {
			id, err := binary.ReadVarint(br)
			if err != nil {
				return corrupt("truncated function id")
			}
			if !fitsInt32(id) {
				return corrupt("function id out of int32 range")
			}
			nameLen, err := binary.ReadUvarint(br)
			if err != nil || nameLen > 1<<20 {
				return corrupt("bad function name length")
			}
			buf.Reset()
			if _, err := io.CopyN(buf, br, int64(nameLen)); err != nil {
				return corrupt("truncated function name")
			}
			table[int32(id)] = buf.String()
		}
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("truncated event count")
	}
	return col, total, nil
}

// ReadTraceAuto reads a trace file.
//
// Deprecated: ReadTrace reads the one trace format.
func ReadTraceAuto(r io.Reader) (*Collector, error) { return ReadTrace(r) }
