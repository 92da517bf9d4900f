package vt

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
)

// This file adds a streaming spill sink to the Collector, bounding the
// resident memory of very large traces (10k+ rank sweeps). Whenever the
// in-memory store grows past a threshold, the whole store — every Append
// batch, in global insertion order — is encoded as compact frames
// (`uvarint count, uvarint blockLen, block`, one block per batch; block
// format in compact.go), appended to an on-disk file, and the store's
// chunks go back to the pool. Because the store is always spilled in full,
// the file is exactly the insertion-ordered prefix of the event stream, and
// the resident events are exactly its suffix; the merged time-ordered view
// is reconstructed on read by decoding the frames into pooled chunks and
// running the same stable k-way merge that serves the in-memory path, over
// disk and store segments together.
//
// Every spill file opens with a 5-byte header, "VTSP" plus the format
// version (CompactVersion), so a reader confronted with a file from a
// different revision — such as the retired version 1 of fixed 40-byte
// records — fails with a typed *FormatError instead of misparsing it.
//
// The sink follows the experiment store's durability discipline: each
// spill batch is flushed and fsynced before Append returns. Frames are
// length-prefixed, so a torn final frame (crash mid-spill) is caught by the
// frame walk.

// spillMagic opens every spill file, followed by the format version byte.
const spillMagic = "VTSP"

// spillHdrBytes is the header size: magic plus version.
const spillHdrBytes = len(spillMagic) + 1

// spillSeg is one time-sorted segment of the spill file, in global record
// indices.
type spillSeg struct{ start, end int }

// spillSink streams a Collector's store to disk.
type spillSink struct {
	f         *os.File
	path      string
	threshold int
	count     int          // events on disk
	bytes     int          // payload bytes on disk, header excluded
	stats     CompactStats // suppression counters of the spilled frames
	segs      []spillSeg
	err       error // sticky first I/O failure
	buf       []byte
}

// SpillTo arms the collector's spill sink: once more than thresholdEvents
// events are resident, the store is encoded and streamed to a file at path
// (created or truncated here) and resident memory drops back to zero, so
// the on-disk budget shrinks with the suppression ratio. Len, Bytes,
// Ordered and WriteTrace are unaffected by spilling apart from memory cost;
// Release deletes the file. I/O failures after arming are sticky and
// reported by SpillErr — the collector keeps counting but the merged view
// is no longer reconstructable.
func (col *Collector) SpillTo(path string, thresholdEvents int) error {
	if thresholdEvents <= 0 {
		return fmt.Errorf("vt: spill threshold must be positive, got %d", thresholdEvents)
	}
	if col.spill != nil {
		return fmt.Errorf("vt: collector already spilling to %s", col.spill.path)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("vt: spill: %w", err)
	}
	if _, err := f.Write(append([]byte(spillMagic), CompactVersion)); err != nil {
		f.Close()
		os.Remove(path)
		return fmt.Errorf("vt: spill: %w", err)
	}
	col.spill = &spillSink{f: f, path: path, threshold: thresholdEvents}
	return nil
}

// Spilled reports how many events have been written to the spill file.
func (col *Collector) Spilled() int {
	if col.spill == nil {
		return 0
	}
	return col.spill.count
}

// Resident reports how many events are held in memory (the store suffix
// not yet spilled).
func (col *Collector) Resident() int { return col.n }

// SpillErr reports the first spill I/O failure, if any.
func (col *Collector) SpillErr() error {
	if col.spill == nil {
		return nil
	}
	return col.spill.err
}

// maybeSpill streams the store to disk if it has outgrown the threshold.
// Called at the end of every Append.
func (s *spillSink) maybeSpill(col *Collector) {
	if s.err != nil || col.n < s.threshold {
		return
	}
	payload := s.buf[:0]
	st := s.stats
	col.eachBlock(func(count int, block []byte, recs, reps int) {
		payload = binary.AppendUvarint(payload, uint64(count))
		payload = binary.AppendUvarint(payload, uint64(len(block)))
		payload = append(payload, block...)
		st.add(count, len(block), recs, reps)
	})
	s.buf = payload
	if _, err := s.f.Write(payload); err != nil {
		s.err = fmt.Errorf("vt: spill: %w", err)
		return
	}
	if err := s.f.Sync(); err != nil {
		s.err = fmt.Errorf("vt: spill: %w", err)
		return
	}
	// The store's segments become spill-file segments in record indices,
	// shifted past everything already on disk; the store's chunks go back
	// to the pool.
	for _, seg := range col.segs {
		n := col.store.count(seg.start, seg.end)
		s.segs = append(s.segs, spillSeg{start: s.count, end: s.count + n})
		s.count += n
	}
	s.bytes += len(payload)
	s.stats = st
	col.store.release()
	col.n = 0
	col.segs = col.segs[:0]
	col.batches = col.batches[:0]
}

// checkHeader validates the spill file's magic and version, returning a
// *FormatError on mismatch. It guards every read path so a file swapped or
// truncated underneath the collector — or one written by a different
// format revision — is rejected rather than misparsed.
func (s *spillSink) checkHeader() error {
	var hdr [spillHdrBytes]byte
	if _, err := s.f.ReadAt(hdr[:], 0); err != nil {
		return &FormatError{What: "spill file", Version: -1, Detail: "truncated header"}
	}
	if string(hdr[:len(spillMagic)]) != spillMagic {
		return &FormatError{What: "spill file", Version: -1, Detail: "bad magic"}
	}
	if hdr[len(spillMagic)] != CompactVersion {
		return &FormatError{What: "spill file", Version: int(hdr[len(spillMagic)])}
	}
	return nil
}

// combined restores the full insertion-ordered store for merge-on-read:
// the decoded disk prefix as fresh chunks followed by the resident store's
// chunks, the matching segment list, and how many leading chunks were
// decoded (and so belong to the caller). On a read failure the sticky
// error is set and only the resident store is returned.
func (s *spillSink) combined(col *Collector) (chain, []segRange, int) {
	all, err := s.decodeAll()
	if err != nil {
		all.release()
		s.err = err
		return col.store, col.segs, 0
	}
	// Decoded chunks are densely filled, so a record index is its slot;
	// resident slots shift past the decoded chunks.
	decoded := len(all)
	shift := decoded << chunkShift
	all = append(all, col.store...)
	segs := make([]segRange, 0, len(s.segs)+len(col.segs))
	for _, seg := range s.segs {
		segs = append(segs, segRange{start: seg.start, end: seg.end})
	}
	for _, seg := range col.segs {
		segs = append(segs, segRange{start: shift + seg.start, end: shift + seg.end})
	}
	return all, segs, decoded
}

// decodeAll decodes the spill payload's frames (readFrames) into densely
// filled chunks, streaming the file through at most 64 KiB. On
// failure the chunks decoded so far are returned with the error, for the
// caller to release.
func (s *spillSink) decodeAll() (chain, error) {
	if err := s.checkHeader(); err != nil {
		return nil, err
	}
	src := &sourceReader{r: io.NewSectionReader(s.f, int64(spillHdrBytes), int64(s.bytes))}
	br := bufio.NewReaderSize(src, min(s.bytes, 64<<10))
	var all chain
	if err := readFrames(src, br, uint64(s.count), "spill file", &all, nil); err != nil {
		return all, err
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return all, src.failure("spill file", &FormatError{What: "spill file", Version: -1, Detail: "trailing bytes after final frame"})
	}
	return all, nil
}

// close releases and deletes the spill file.
func (s *spillSink) close() {
	s.f.Close()
	os.Remove(s.path)
}
