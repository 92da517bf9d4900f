package vt

import (
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

func overflowCtx(t *testing.T, cap int, policy fault.OverflowPolicy) (*Ctx, *Collector, *fault.Injector) {
	t.Helper()
	col := NewCollector()
	inj := fault.NewInjector(&fault.Plan{TraceBufEvents: cap, Overflow: policy}, des.NewRNG(1))
	c := NewCtx(Options{Rank: 0, Collector: col, BufferEvents: cap, Overflow: policy, Faults: inj, Node: 3})
	c.Initialize(nil)
	return c, col, inj
}

// TestOverflowFlushEarly: a full buffer is drained to the collector,
// charging the thread, and the arriving event starts the next buffer.
func TestOverflowFlushEarly(t *testing.T) {
	c, col, inj := overflowCtx(t, 8, fault.OverflowFlushEarly)
	id := c.FuncDef("f")
	ec := &fakeEC{}
	for i := 0; i < 20; i++ {
		c.Begin(ec, id)
	}
	// Buffers of 8 flushed at events 9 and 17; 4 remain buffered.
	if col.Len() != 16 || c.Overflows() != 2 || c.MidRunFlushes() != 2 {
		t.Fatalf("col=%d overflows=%d flushes=%d, want 16/2/2", col.Len(), c.Overflows(), c.MidRunFlushes())
	}
	base := int64(20) * (lookupCycles + recordCycles)
	if ec.charged != base+16*flushCyclesPerEvent {
		t.Errorf("charged %d, want %d", ec.charged, base+16*flushCyclesPerEvent)
	}
	c.Flush()
	if col.Len() != 20 {
		t.Errorf("total events = %d, want 20 (nothing lost)", col.Len())
	}
	evs := inj.Events()
	if len(evs) != 2 || evs[0].Kind != fault.KindOverflow || evs[0].Node != 3 {
		t.Errorf("fault events = %+v, want 2 overflow events on node 3", evs)
	}
}

// TestOverflowDropOldest: the buffer stays at capacity, keeping the most
// recent events; one fault event notes the loss per thread.
func TestOverflowDropOldest(t *testing.T) {
	c, col, inj := overflowCtx(t, 5, fault.OverflowDropOldest)
	id := c.FuncDef("f")
	ec := &fakeEC{}
	for i := 0; i < 30; i++ {
		ec.now = des.Time(i) * des.Millisecond
		c.Begin(ec, id)
	}
	c.Flush()
	if col.Len() != 5 {
		t.Fatalf("kept %d events, want capacity 5", col.Len())
	}
	evs := col.Ordered().AppendTo(nil)
	if evs[0].At != 25*des.Millisecond || evs[4].At != 29*des.Millisecond {
		t.Errorf("kept window [%v, %v], want the newest 5 events", evs[0].At, evs[4].At)
	}
	if c.Overflows() != 25 {
		t.Errorf("overflows = %d, want 25", c.Overflows())
	}
	if got := inj.Events(); len(got) != 1 || !strings.Contains(got[0].Detail, "dropping oldest") {
		t.Errorf("fault log = %+v, want a single drop-oldest note", got)
	}
}

// TestOverflowDisableProbe: the offending probe is deactivated — later
// calls pay only the lookup and record nothing — and one fault event
// names the disabled function.
func TestOverflowDisableProbe(t *testing.T) {
	c, col, inj := overflowCtx(t, 4, fault.OverflowDisableProbe)
	f := c.FuncDef("hot")
	g := c.FuncDef("cold")
	ec := &fakeEC{}
	for i := 0; i < 10; i++ {
		c.Begin(ec, f)
	}
	if c.Active(f) {
		t.Fatal("overflowing probe still active")
	}
	if c.Calls(f) != 5 {
		// 4 buffered + the call that tripped the overflow; later calls
		// are gated off by the deactivation table.
		t.Errorf("calls(f) = %d, want 5", c.Calls(f))
	}
	// Another function still fits in the remaining... the buffer is full,
	// so it immediately trips the policy too.
	c.Begin(ec, g)
	if c.Active(g) {
		t.Error("second probe not disabled by full buffer")
	}
	c.Flush()
	if col.Len() != 4 {
		t.Errorf("kept %d events, want the 4 buffered before disabling", col.Len())
	}
	var names []string
	for _, ev := range inj.Events() {
		names = append(names, ev.Detail)
	}
	if len(names) != 2 || !strings.Contains(names[0], "hot") || !strings.Contains(names[1], "cold") {
		t.Errorf("fault log = %v, want one disable note per function", names)
	}
}
