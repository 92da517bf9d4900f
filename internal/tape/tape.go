// Package tape records the operations an application performs on its own
// behalf — call gates, computation, MPI calls and OpenMP regions — as one
// compact byte stream per thread, and reads them back.
//
// A tape is the basis of compute-once experiment sweeps: an instrumentation
// policy changes only what the tool does, never what the application
// computes (the transparency property of dynamic binary instrumentation),
// so one run's tape can drive every other policy's run of the same
// application, input and size. The replay re-executes each taped operation
// through the live runtime, so every probe, trace record and message
// timing is simulated afresh; only the application's own numerics are
// skipped.
//
// Each operation is one unsigned varint head, arg<<4 | kind, followed by
// the varint arguments its kind carries (a signed tag, a byte count). The
// common operations — a gate, its exit and the work between gates — take
// one to three bytes each.
package tape

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"slices"
)

// Kind is the type of one taped operation.
type Kind uint8

// The application's operation vocabulary. Argument fields of Op are named
// per kind.
const (
	// Work is Thread.Work: A = cycles.
	Work Kind = iota
	// Enter is a call-gate entry: A = the function handle.
	Enter
	// Exit closes the innermost open gate.
	Exit
	// Init is MPI_Init.
	Init
	// Finalize is MPI_Finalize.
	Finalize
	// Barrier is MPI_Barrier.
	Barrier
	// Send is an eager MPI_Send: A = destination, B = tag, C = bytes.
	Send
	// Recv is a blocking MPI_Recv: A = source, B = tag, C = the received
	// message's byte count.
	Recv
	// Irecv posts a non-blocking receive: A = source, B = tag.
	Irecv
	// Wait completes a posted receive: A = how many Irecvs back it was
	// posted (1 = the latest), C = the received message's byte count.
	Wait
	// Allreduce is a scalar MPI_Allreduce: A = the reduction operator.
	Allreduce
	// Parallel opens an OpenMP parallel region on the master: A = the
	// region's index in the tape's region table. Every team thread's
	// track then holds the region body, closed by End.
	Parallel
	// End closes one team thread's parallel-region body.
	End

	numKinds

	// EOF is what a Reader returns past the last operation of a track.
	EOF Kind = 14
	// Bad is what a Reader returns for a malformed operation.
	Bad Kind = 15
)

const kindBits = 4

var kindNames = [...]string{
	Work: "Work", Enter: "Enter", Exit: "Exit", Init: "Init", Finalize: "Finalize",
	Barrier: "Barrier", Send: "Send", Recv: "Recv", Irecv: "Irecv", Wait: "Wait",
	Allreduce: "Allreduce", Parallel: "Parallel", End: "End", EOF: "EOF", Bad: "Bad",
}

func (k Kind) String() string {
	if int(k) < len(kindNames) && kindNames[k] != "" {
		return kindNames[k]
	}
	return fmt.Sprintf("Kind(%d)", k)
}

// Op is one taped operation. A, B and C are the kind's arguments.
type Op struct {
	Kind    Kind
	A, B, C int64
}

func (op Op) String() string {
	switch op.Kind {
	case Send, Recv:
		return fmt.Sprintf("%s(%d, tag %d, %d bytes)", op.Kind, op.A, op.B, op.C)
	case Irecv:
		return fmt.Sprintf("Irecv(%d, tag %d)", op.A, op.B)
	case Wait:
		return fmt.Sprintf("Wait(%d back, %d bytes)", op.A, op.C)
	case Work, Enter, Allreduce, Parallel:
		return fmt.Sprintf("%s(%d)", op.Kind, op.A)
	default:
		return op.Kind.String()
	}
}

// Tape is one run's application operations: a track per thread that ran
// application code (one per MPI rank, or one per OpenMP team thread with
// the master first). The zero Tape is blank; the launcher of the recorded
// run starts it. A tape is written by exactly one run and is read-only
// once that run has finished, so any number of replays may share it.
type Tape struct {
	app     string
	tracks  []Track
	regions []string
	fnOf    []int32
	invalid string
}

// Start readies a blank tape to record n tracks of the named
// application. fnOf maps an image symbol's Region to the application's
// handle for that function; runtime symbols map to -1, since the
// application never calls them itself. A tape records one run only.
func (tp *Tape) Start(app string, n int, fnOf []int32) error {
	if tp.tracks != nil {
		return fmt.Errorf("tape: %s tape already recorded", tp.app)
	}
	tp.app, tp.tracks, tp.fnOf = app, make([]Track, n), fnOf
	for i := range tp.tracks {
		tp.tracks[i].tp = tp
	}
	return nil
}

// App names the application the tape was recorded from.
func (tp *Tape) App() string { return tp.app }

// Len reports the number of tracks.
func (tp *Tape) Len() int { return len(tp.tracks) }

// Track returns track i, for recording.
func (tp *Tape) Track(i int) *Track { return &tp.tracks[i] }

// Reader returns a reader positioned at the start of track i.
func (tp *Tape) Reader(i int) Reader { return Reader{buf: tp.tracks[i].buf} }

// Region names the parallel region a Parallel op's A indexes.
func (tp *Tape) Region(i int64) (string, bool) {
	if i < 0 || i >= int64(len(tp.regions)) {
		return "", false
	}
	return tp.regions[i], true
}

// Size reports the encoded size of every track, in bytes.
func (tp *Tape) Size() int {
	n := 0
	for i := range tp.tracks {
		n += len(tp.tracks[i].buf)
	}
	return n
}

// ErrUnreplayable is wrapped by Err when the recorded run did something
// the tape cannot represent.
var ErrUnreplayable = errors.New("tape: recording cannot be replayed")

// Err reports why the tape cannot drive a replay: the recorded run used an
// operation outside the vocabulary (a wildcard receive, a collective the
// tape does not model, a nested region). nil means the tape is complete.
func (tp *Tape) Err() error {
	if tp.invalid == "" {
		return nil
	}
	return fmt.Errorf("%w: %s", ErrUnreplayable, tp.invalid)
}

// Equal reports whether two tapes hold byte-identical tracks and region
// tables for the same application.
func (tp *Tape) Equal(o *Tape) bool {
	if tp.app != o.app || len(tp.tracks) != len(o.tracks) || !slices.Equal(tp.regions, o.regions) {
		return false
	}
	for i := range tp.tracks {
		if !bytes.Equal(tp.tracks[i].buf, o.tracks[i].buf) {
			return false
		}
	}
	return true
}

// Track is one thread's operation stream.
type Track struct {
	tp  *Tape
	buf []byte
}

// Append encodes op at the end of the track. Arguments that must be
// non-negative (everything but a tag) and are not mark the tape
// unreplayable instead.
func (tr *Track) Append(op Op) {
	if op.A < 0 || op.C < 0 || op.Kind >= numKinds {
		tr.Unsupported(fmt.Sprintf("unencodable op %v", op))
		return
	}
	b := binary.AppendUvarint(tr.buf, uint64(op.A)<<kindBits|uint64(op.Kind))
	switch op.Kind {
	case Send, Recv:
		b = binary.AppendVarint(b, op.B)
		b = binary.AppendUvarint(b, uint64(op.C))
	case Irecv:
		b = binary.AppendVarint(b, op.B)
	case Wait:
		b = binary.AppendUvarint(b, uint64(op.C))
	}
	tr.buf = b
}

// Enter records a call-gate entry for the image symbol whose probe
// regions start at region.
func (tr *Track) Enter(region int) {
	if region < 0 || region >= len(tr.tp.fnOf) || tr.tp.fnOf[region] < 0 {
		tr.Unsupported(fmt.Sprintf("gate of a runtime symbol (region %d)", region))
		return
	}
	tr.buf = binary.AppendUvarint(tr.buf, uint64(tr.tp.fnOf[region])<<kindBits|uint64(Enter))
}

// Parallel records the opening of the named parallel region.
func (tr *Track) Parallel(region string) {
	i := slices.Index(tr.tp.regions, region)
	if i < 0 {
		i = len(tr.tp.regions)
		tr.tp.regions = append(tr.tp.regions, region)
	}
	tr.Append(Op{Kind: Parallel, A: int64(i)})
}

// Unsupported marks the tape unreplayable: the application performed
// what, which the vocabulary cannot express. The first reason sticks.
func (tr *Track) Unsupported(what string) {
	if tr.tp.invalid == "" {
		tr.tp.invalid = what
	}
}

// Reader decodes one track. The zero Reader is an empty track.
type Reader struct {
	buf []byte
	pos int
}

// Offset reports the byte offset of the next operation.
func (r *Reader) Offset() int { return r.pos }

// Next decodes the next operation: EOF past the end of the track, Bad
// (with the reader stuck at the bad operation) for a malformed one.
func (r *Reader) Next() Op {
	if r.pos >= len(r.buf) {
		return Op{Kind: EOF}
	}
	p := r.pos
	head, n := binary.Uvarint(r.buf[p:])
	if n <= 0 || head>>kindBits > 1<<62 {
		return Op{Kind: Bad}
	}
	p += n
	op := Op{Kind: Kind(head & (1<<kindBits - 1)), A: int64(head >> kindBits)}
	if op.Kind >= numKinds {
		return Op{Kind: Bad}
	}
	switch op.Kind {
	case Send, Recv, Irecv:
		v, n := binary.Varint(r.buf[p:])
		if n <= 0 {
			return Op{Kind: Bad}
		}
		op.B, p = v, p+n
		if op.Kind == Irecv {
			break
		}
		fallthrough
	case Wait:
		v, n := binary.Uvarint(r.buf[p:])
		if n <= 0 || v > 1<<62 {
			return Op{Kind: Bad}
		}
		op.C, p = int64(v), p+n
	}
	r.pos = p
	return op
}

// MismatchError reports a replay that diverged from its tape: an
// operation the replay could not perform as taped, or a received message
// whose source, tag or size differs from the recording. Replays never
// continue past a mismatch.
type MismatchError struct {
	// Track is the thread track being replayed.
	Track int
	// Offset is the byte offset of the diverging operation in the track.
	Offset int
	// Op is the taped operation.
	Op Op
	// Detail says what diverged.
	Detail string
}

func (e *MismatchError) Error() string {
	return fmt.Sprintf("tape: replay diverged on track %d at byte %d (%v): %s", e.Track, e.Offset, e.Op, e.Detail)
}
