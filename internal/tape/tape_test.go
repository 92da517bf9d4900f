package tape

import (
	"errors"
	"testing"
)

// TestRoundTrip: every kind of op decodes to what was appended, in order,
// then EOF; gates translate from symbol regions to function handles.
func TestRoundTrip(t *testing.T) {
	var tp Tape
	if err := tp.Start("app", 2, []int32{-1, -1, 0, -1, 7}); err != nil {
		t.Fatal(err)
	}
	ops := []Op{
		{Kind: Init},
		{Kind: Work, A: 0},
		{Kind: Work, A: 1 << 40},
		{Kind: Enter, A: 7},
		{Kind: Send, A: 3, B: -5, C: 4096},
		{Kind: Recv, A: 63, B: 1 << 20, C: 0},
		{Kind: Irecv, A: 1, B: 42},
		{Kind: Wait, A: 2, C: 800},
		{Kind: Allreduce, A: 2},
		{Kind: Barrier},
		{Kind: Exit},
		{Kind: Parallel, A: 0},
		{Kind: End},
		{Kind: Finalize},
	}
	tr := tp.Track(1)
	for _, op := range ops {
		switch op.Kind {
		case Enter:
			tr.Enter(4)
		case Parallel:
			tr.Parallel("sweep")
		default:
			tr.Append(op)
		}
	}
	if err := tp.Err(); err != nil {
		t.Fatal(err)
	}
	rd := tp.Reader(1)
	for i, want := range ops {
		if got := rd.Next(); got != want {
			t.Fatalf("op %d: got %v, want %v", i, got, want)
		}
	}
	if got := rd.Next(); got.Kind != EOF {
		t.Fatalf("past the end: got %v", got)
	}
	if name, ok := tp.Region(0); !ok || name != "sweep" {
		t.Errorf("region 0 = %q, %t", name, ok)
	}
	if rd := tp.Reader(0); rd.Next().Kind != EOF {
		t.Error("untouched track is not empty")
	}
}

// TestMalformed: truncated and unknown ops decode as Bad without
// advancing, and unencodable appends spoil the tape.
func TestMalformed(t *testing.T) {
	for name, buf := range map[string][]byte{
		"truncated head": {0x80},
		"unknown kind":   {0x0d},
		"truncated send": {byte(Send), 0x02},
	} {
		rd := Reader{buf: buf}
		if op := rd.Next(); op.Kind != Bad || rd.Offset() != 0 {
			t.Errorf("%s: got %v at %d, want Bad at 0", name, op, rd.Offset())
		}
	}
	var tp Tape
	if err := tp.Start("app", 1, nil); err != nil {
		t.Fatal(err)
	}
	tp.Track(0).Append(Op{Kind: Work, A: -1})
	if !errors.Is(tp.Err(), ErrUnreplayable) {
		t.Errorf("negative work: Err = %v", tp.Err())
	}
	if err := tp.Start("app", 1, nil); err == nil {
		t.Error("a tape started twice")
	}
}
