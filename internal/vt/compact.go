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
// The encoding is applied where the trace leaves memory: spill files and
// binary trace files hold one block per Collector Append batch, while the
// collector itself keeps the verbatim chunk store (event.go, chunk.go).
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
	// What names the artifact: "spill file", "compact trace", "compact block".
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

// Pools recycling the encoder (dictionary map and block scratch included)
// and the decoder scratch across collectors.
var (
	encoderPool = sync.Pool{New: func() any { return new(encoder) }}
	decoderPool = sync.Pool{New: func() any { return new(decoder) }}
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
	events   []Event // gathers a batch that spans chunks, for eachBlock
}

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

// encodeBlock appends one block encoding evs to dst, returning the grown
// buffer and the op counts (records total, repeat records among them).
func (e *encoder) encodeBlock(dst []byte, evs []Event) (out []byte, recs, reps int) {
	e.reset()
	var prevAt des.Time
	var prevRank, prevTid int32
	for i := 0; i < len(evs); {
		// Repeat detection: the smallest period with at least one full
		// extra copy wins (a period-P loop is caught at l == P; larger l
		// only splinters it).
		maxL := i
		if maxL > maxPattern {
			maxL = maxPattern
		}
		bestL, run := 0, 0
		for l := 1; l <= maxL; l++ {
			if !evEq(evs, i, i-l) {
				continue
			}
			if r := matchRun(evs, i, l); r >= l {
				bestL, run = l, r
				break
			}
		}
		if bestL > 0 {
			copies := run / bestL
			dst = append(dst, tagRepeat|byte(bestL))
			dst = binary.AppendUvarint(dst, uint64(copies))
			last := i + copies*bestL - 1
			prevAt = evs[last].At
			prevRank, prevTid = evs[last].Rank, evs[last].TID
			i += copies * bestL
			recs++
			reps++
			continue
		}

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

// decodeInto decodes one block of count events onto the end of c. A block
// that fits the last chunk's free room (see chain.room) is decoded straight
// into it; a larger one is decoded into *scratch, which the caller keeps
// and reuses, and copied in. Either way c stays densely filled.
func decodeInto(c *chain, dec *decoder, src []byte, count int, scratch *[]Event) error {
	var err error
	if last := c.room(); count <= cap(last)-len(last) {
		(*c)[len(*c)-1], _, _, err = dec.block(src, count, last)
		return err
	}
	if *scratch, _, _, err = dec.block(src, count, (*scratch)[:0]); err == nil {
		c.copyIn(*scratch)
	}
	return err
}

// Binary trace-file format (version 2): the compact counterpart of the
// textual "# vgvtrace 1" format, readable by ReadCompactTrace and sniffed
// by ReadTraceAuto.
//
//	"VGVC" version(1)
//	uvarint nRanks { svarint rank, uvarint nFuncs { svarint id, uvarint len, name } }
//	uvarint totalEvents
//	frame* where frame := uvarint count, uvarint blockLen, block
const traceMagic = "VGVC"

// WriteCompactTrace writes the trace in the compact binary format, one
// frame per Append batch: spilled frames are copied from the spill file,
// resident batches are encoded here. Reading the file back reconstructs a
// collector whose ordered view — and therefore every VGV rendering —
// is byte-identical to the source's.
func (col *Collector) WriteCompactTrace(w io.Writer) error {
	bw := bufio.NewWriter(w)
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

	writeU(uint64(col.Len()))
	if col.spill != nil && col.spill.count > 0 {
		if err := col.spill.copyFrames(bw); err != nil {
			return err
		}
	}
	col.eachBlock(func(count int, block []byte, _, _ int) {
		writeU(uint64(count))
		writeU(uint64(len(block)))
		bw.Write(block)
	})
	return bw.Flush()
}

// ReadCompactTrace parses a trace produced by WriteCompactTrace, appending
// each decoded frame to the collector as one batch, so writing the result
// with WriteCompactTrace reproduces the file. Frames are decoded straight
// into the collector's chunks (see decodeInto). An unrecognised magic or
// version, or a structurally impossible file, is rejected with
// *FormatError.
func ReadCompactTrace(r io.Reader) (*Collector, error) {
	br, ok := r.(*bufio.Reader)
	if !ok {
		br = bufio.NewReader(r)
	}
	col, total, err := readCompactHeader(br)
	if err != nil {
		return nil, err
	}
	corrupt := func(detail string) (*Collector, error) {
		col.Release()
		return nil, &FormatError{What: "compact trace", Version: -1, Detail: detail}
	}
	dec := decoderPool.Get().(*decoder)
	defer decoderPool.Put(dec)
	var frame bytes.Buffer
	var scratch []Event
	for decoded := uint64(0); decoded < total; {
		count, err := binary.ReadUvarint(br)
		if err != nil {
			return corrupt("truncated frame header")
		}
		blen, err := binary.ReadUvarint(br)
		if err != nil || count == 0 || count > total-decoded || count > math.MaxInt/maxEventBytes || blen > count*maxEventBytes {
			return corrupt("bad frame header")
		}
		// The buffer grows only as bytes arrive, so a length the input
		// cannot back never turns into an allocation.
		frame.Reset()
		if _, err := io.CopyN(&frame, br, int64(blen)); err != nil {
			return corrupt("truncated frame")
		}
		start := col.store.next()
		if err := decodeInto(&col.store, dec, frame.Bytes(), int(count), &scratch); err != nil {
			col.Release()
			return nil, err
		}
		col.addBatch(start, int(count))
		decoded += count
	}
	return col, nil
}

// readCompactHeader reads a binary trace file's header and function tables
// into a fresh collector, returning it with the file's claimed event total.
func readCompactHeader(br *bufio.Reader) (*Collector, uint64, error) {
	var hdr [5]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, &FormatError{What: "compact trace", Version: -1, Detail: "truncated header"}
	}
	if string(hdr[:4]) != traceMagic {
		return nil, 0, &FormatError{What: "compact trace", Version: -1, Detail: "bad magic"}
	}
	if hdr[4] != CompactVersion {
		return nil, 0, &FormatError{What: "compact trace", Version: int(hdr[4])}
	}
	col := NewCollector()
	corrupt := func(detail string) (*Collector, uint64, error) {
		col.Release()
		return nil, 0, &FormatError{What: "compact trace", Version: -1, Detail: detail}
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
			name := make([]byte, nameLen)
			if _, err := io.ReadFull(br, name); err != nil {
				return corrupt("truncated function name")
			}
			table[int32(id)] = string(name)
		}
	}
	total, err := binary.ReadUvarint(br)
	if err != nil {
		return corrupt("truncated event count")
	}
	return col, total, nil
}

// ReadTraceAuto reads a trace in either supported format, sniffing the
// compact binary magic and falling back to the textual parser.
func ReadTraceAuto(r io.Reader) (*Collector, error) {
	br := bufio.NewReader(r)
	if peek, err := br.Peek(len(traceMagic)); err == nil && string(peek) == traceMagic {
		return ReadCompactTrace(br)
	}
	return ReadTrace(br)
}
