package vt

import (
	"fmt"
	"io"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/mpi"
)

// Cost model for VT_confsync and runtime statistics generation.
const (
	// confSyncBaseCycles is per-rank processing inside VT_confsync.
	confSyncBaseCycles = 180_000
	// confApplyCyclesPerRule is the per-change cost of rebuilding the
	// deactivation table.
	confApplyCyclesPerRule = 40_000
	// statsEntryBytes is the wire/disk size of one per-function record in
	// the runtime statistics dump.
	statsEntryBytes = 16
	// statsWriteLatency and statsWriteBandwidth price the root's file
	// write of gathered statistics.
	statsWriteLatency   = 6 * des.Millisecond
	statsWriteBandwidth = 30e6 // bytes per second
)

// BreakpointSymbol is the no-op function VT_confsync calls on rank 0,
// "which can be used as a breakpoint within a monitoring tool".
const BreakpointSymbol = "configuration_break"

// FuncStat is one function's runtime statistics entry.
type FuncStat struct {
	Name  string
	Calls int64
}

// ConfSync is VT_confsync: the process-synchronisation API of the
// instrumentation library (Section 5). All ranks must call it
// collectively, at a point where no messages are in flight. Rank 0 hits
// the configuration_break breakpoint (where a monitoring tool may stage
// changes via QueueChanges), then distributes any staged configuration
// changes to every rank, which applies them. With writeStats set, per-
// function statistics are additionally gathered to rank 0 and written to
// statsOut (Experiment 3 of the paper's Section 5).
//
// It returns the number of changes distributed.
func (c *Ctx) ConfSync(m *mpi.Ctx, writeStats bool, statsOut io.Writer) int {
	if !c.ready {
		panic("vt: ConfSync before library initialisation")
	}
	t := m.Thread()
	n := 0
	body := func() {
		t.Work(confSyncBaseCycles)
		var chs []Change
		if m.Rank() == 0 {
			// The breakpoint is itself an image symbol when the binary
			// was built with dynamic-control support, so a tool can plant
			// a real probe on it; otherwise it reduces to the handler.
			if c.breakSym != nil {
				t.Call(c.breakSym, func() { t.Breakpoint(BreakpointSymbol) })
			} else {
				t.Breakpoint(BreakpointSymbol)
			}
			chs = c.pending
			c.pending = nil
		}
		wire := m.Bcast(0, 4+len(chs)*changeBytes, chs)
		chs, _ = wire.([]Change)
		c.endEpoch(t, chs)
		n = len(chs)
		if writeStats {
			c.gatherStats(m, statsOut)
		}
		c.record(t, ConfSync, 0, c.gen, int64(n))
		m.Barrier()
	}
	if c.syncSym != nil {
		t.Call(c.syncSym, body)
	} else {
		body()
	}
	return n
}

// SyncPoint is the execution context LocalSync needs: the ordinary charge
// interface plus work accounting and the breakpoint hook. *proc.Thread
// satisfies it.
type SyncPoint interface {
	image.ExecCtx
	Work(cycles int64)
	Breakpoint(name string)
}

// LocalSync is the single-process (OpenMP) variant of ConfSync: the same
// breakpoint + drain-pending + apply-or-advance epoch protocol, minus the
// MPI distribution. The master thread calls it at a program sync point; a
// monitoring tool stages changes from the breakpoint handler exactly as in
// the MPI case. It returns the number of changes applied.
func (c *Ctx) LocalSync(t SyncPoint) int {
	if !c.ready {
		panic("vt: LocalSync before library initialisation")
	}
	t.Work(confSyncBaseCycles)
	t.Breakpoint(BreakpointSymbol)
	chs := c.pending
	c.pending = nil
	c.endEpoch(t, chs)
	c.record(t, ConfSync, 0, c.gen, int64(len(chs)))
	return len(chs)
}

// endEpoch applies a sync's distributed changes, charging t for the
// rebuild, and advances the generation. A rejected batch still consumes
// the epoch: the bad changes surface on the fault stream and the
// generation advances, so every rank stays in sync.
func (c *Ctx) endEpoch(t SyncPoint, chs []Change) {
	if len(chs) == 0 {
		c.gen++
		return
	}
	t.Work(int64(len(chs)) * confApplyCyclesPerRule)
	if err := c.ApplyChanges(chs); err != nil {
		c.faultEvent(t, "confsync: "+err.Error())
		c.gen++
	}
}

// gatherStats collects per-function call counts to rank 0 and writes them.
func (c *Ctx) gatherStats(m *mpi.Ctx, out io.Writer) {
	t := m.Thread()
	snap := c.StatsSnapshot()
	perRank := len(snap)*statsEntryBytes + 16
	vals, isRoot := m.Gather(0, perRank, snap)
	if !isRoot {
		return
	}
	total := 0
	for r, v := range vals {
		// A dead rank's gather slot is nil under degraded collectives.
		stats, ok := v.([]FuncStat)
		if !ok {
			continue
		}
		total += len(stats)*statsEntryBytes + 16
		if out == nil {
			continue
		}
		for _, st := range stats {
			if st.Calls == 0 {
				continue
			}
			fmt.Fprintf(out, "rank %d %s %d\n", r, st.Name, st.Calls)
		}
	}
	t.WorkTime(statsWriteLatency +
		des.Time(float64(total)/statsWriteBandwidth*float64(des.Second)))
}

// StatsSnapshot returns the current per-function statistics.
func (c *Ctx) StatsSnapshot() []FuncStat {
	out := make([]FuncStat, len(c.names))
	for id, name := range c.names {
		out[id] = FuncStat{Name: name, Calls: c.fns[id].calls}
	}
	return out
}
