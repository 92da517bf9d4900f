package vt

import (
	"fmt"
	"strings"

	"dynprof/internal/fault"
	"dynprof/internal/image"
)

// Cost model for the instrumentation library, in processor cycles.
const (
	// lookupCycles is the cost of the deactivated-symbol table lookup
	// performed at every VT_begin/VT_end call. Disabled probes still pay
	// this plus the compiled-in call overhead — which is why Full-Off is
	// cheaper than Full but can never reach the uninstrumented time.
	lookupCycles = 85
	// recordCycles is the additional cost of timestamping and recording
	// an event when the symbol is active.
	recordCycles = 650
	// apiLogCycles is the cost of logging an MPI wrapper event.
	apiLogCycles = 300
	// initCycles models reading the configuration file and building the
	// deactivation table at VT initialisation.
	initCycles = 1_500_000
	// flushCyclesPerEvent prices writing one buffered event out when a
	// per-thread buffer overflows mid-run — the data-pressure cost behind
	// the paper's motivation that monitoring data grows at megabytes per
	// second per processor and overwhelms collection.
	flushCyclesPerEvent = 220
)

// Ctx is the per-process instance of the instrumentation library (one per
// MPI rank; one per OpenMP application). Methods are called from snippet
// and hook code running on the process's own threads.
type Ctx struct {
	rank      int32
	col       *Collector
	cfg       *Config
	traceAPI  bool
	countOnly bool
	flushAt   int
	midFlush  int
	ready     bool

	names []string
	ids   map[string]int32
	fns   []funcState // by function id

	buffers []threadBuf // by thread id
	bytes   int

	bufCap    int
	overflow  fault.OverflowPolicy
	inj       *fault.Injector
	node      int
	overflows int

	gen     int64
	pending []Change

	syncSym, breakSym *image.Symbol // ConfSync gates, resolved in MPI_Init; nil if absent
}

// funcState is one registered function's activation and counters.
type funcState struct {
	// cfgOn is the activation the configuration rules derive; active,
	// which Begin/End consult, may also have been switched off by
	// overflow handling until the next sync.
	cfgOn, active bool
	calls         int64 // enter count (runtime statistics)
	// Per-probe cost accounting: hits counts Begin/End firings regardless
	// of activation (each pays at least the table lookup), recorded the
	// events actually collected, and cycles every cycle the library charged
	// through the probe (lookup + record). An adaptive controller reads
	// them through CostSnapshot to attribute perturbation per function.
	hits, recorded, cycles int64
}

// Options configures a library instance.
type Options struct {
	// Rank is the owning process's MPI rank (0 for OpenMP applications).
	Rank int
	// Config is the VT configuration file contents (nil: everything on).
	Config *Config
	// Collector receives flushed events; required.
	Collector *Collector
	// TraceAPI enables runtime-API event logging: MPI wrapper events
	// through MPIAdapter, Guidetrace parallel-region events through
	// OMPAdapter.
	TraceAPI bool
	// CountOnly keeps all cost and statistics accounting but drops event
	// payloads instead of buffering them — for large experiment sweeps
	// where the trace itself is not inspected.
	CountOnly bool
	// FlushThreshold bounds each thread's in-memory event buffer: when a
	// buffer reaches this many events it is written out mid-run, charging
	// the writing thread for the I/O. Zero keeps everything buffered
	// until Flush at termination (the paper's postmortem model).
	FlushThreshold int
	// BufferEvents models a fault-injected hard cap on each thread's
	// trace buffer: when a buffer holds this many events and another
	// arrives, the Overflow policy decides what gives. Zero means
	// unbounded (no overflow faults).
	BufferEvents int
	// Overflow selects the policy applied when a capped buffer fills.
	Overflow fault.OverflowPolicy
	// Faults, when non-nil, receives a structured fault event each time
	// a buffer overflows.
	Faults *fault.Injector
	// Node is the node hosting the rank, for fault-event attribution.
	Node int
}

// NewCtx creates a library instance. The instance starts not-ready: probes
// must not record events until Initialize runs (inside MPI_Init / VT_init),
// mirroring the paper's constraint that instrumentation is unsafe before
// the library's own setup completes.
func NewCtx(opts Options) *Ctx {
	if opts.Collector == nil {
		panic("vt: NewCtx without a Collector")
	}
	var cfg *Config
	if opts.Config != nil {
		cfg = opts.Config.Clone()
	}
	return &Ctx{
		rank:      int32(opts.Rank),
		col:       opts.Collector,
		cfg:       cfg,
		traceAPI:  opts.TraceAPI,
		countOnly: opts.CountOnly,
		flushAt:   opts.FlushThreshold,
		bufCap:    opts.BufferEvents,
		overflow:  opts.Overflow,
		inj:       opts.Faults,
		node:      opts.Node,
		ids:       make(map[string]int32),
	}
}

// Rank reports the owning rank.
func (c *Ctx) Rank() int { return int(c.rank) }

// Ready reports whether Initialize has run.
func (c *Ctx) Ready() bool { return c.ready }

// Generation reports the configuration generation (bumped by ConfSync).
func (c *Ctx) Generation() int64 { return c.gen }

// Initialize reads the configuration file, builds the deactivation table
// and opens the library for recording. ec charges the setup cost; a nil ec
// initialises without cost (tests).
func (c *Ctx) Initialize(ec image.ExecCtx) {
	if c.ready {
		return
	}
	if ec != nil {
		ec.Charge(initCycles)
	}
	c.ready = true
}

// FuncDef registers a function name and returns its id, assigning a fresh
// id on first registration (VT_funcdef: "this ID is automatically assigned
// by the VT library at the time that the subroutine is first registered").
func (c *Ctx) FuncDef(name string) int32 {
	if id, ok := c.ids[name]; ok {
		return id
	}
	id := int32(len(c.names))
	c.ids[name] = id
	c.names = append(c.names, name)
	on := c.cfg.Active(name)
	c.fns = append(c.fns, funcState{cfgOn: on, active: on})
	return id
}

// FuncName resolves an id to its registered name.
func (c *Ctx) FuncName(id int32) string {
	if id < 0 || int(id) >= len(c.names) {
		return fmt.Sprintf("func#%d", id)
	}
	return c.names[id]
}

// NumFuncs reports how many functions are registered.
func (c *Ctx) NumFuncs() int { return len(c.names) }

// Active reports whether function id is currently recorded.
func (c *Ctx) Active(id int32) bool { return c.fns[id].active }

// Calls reports the enter count accumulated for function id.
func (c *Ctx) Calls(id int32) int64 { return c.fns[id].calls }

// threadBuf is one thread's event buffer: a plain slice grown
// geometrically up to one chunk (see grown), so a thread that flushes small
// batches never pins a whole chunk, then a chain of pooled chunks that is
// never regrown or copied — Append adopts the full ones.
type threadBuf struct {
	full [][]Event // full pooled chunks, oldest first
	cur  []Event   // the piece being filled; a pooled chunk once cap is chunkEvents
	// head counts events dropped from the front of the oldest piece
	// (full[0], else cur) by OverflowDropOldest.
	head      int
	n         int  // events held
	dropNoted bool // the drop-oldest fault was logged for this thread
}

// push appends e.
func (tb *threadBuf) push(e Event) {
	if len(tb.cur) == cap(tb.cur) {
		tb.grow()
	}
	tb.cur = append(tb.cur, e)
	tb.n++
}

// grow makes room in cur for one more event.
func (tb *threadBuf) grow() {
	switch {
	case len(tb.full) == 0 && tb.head > 0 && 2*tb.head >= len(tb.cur):
		// Mostly dropped from the front: compact in place. The move is
		// paid once per head drops, so dropping stays O(1) amortised.
		k := copy(tb.cur, tb.cur[tb.head:])
		tb.cur, tb.head = tb.cur[:k], 0
	case cap(tb.cur) == chunkEvents:
		if tb.full == nil {
			tb.full = make([][]Event, 0, chainHint)
		}
		tb.full = append(tb.full, tb.cur)
		tb.cur = newChunk()
	default:
		tb.cur, tb.head = grown(tb.cur[tb.head:]), 0
	}
}

// dropOldest discards the oldest buffered event.
func (tb *threadBuf) dropOldest() {
	tb.head++
	tb.n--
	switch {
	case len(tb.full) > 0 && tb.head == len(tb.full[0]):
		freeChunk(tb.full[0])
		tb.full = append(tb.full[:0], tb.full[1:]...)
		tb.head = 0
	case len(tb.full) == 0 && tb.head == len(tb.cur):
		tb.cur, tb.head = tb.cur[:0], 0
	}
}

// buffer returns thread tid's buffer slot, extending the slot table.
func (c *Ctx) buffer(tid int) *threadBuf {
	if tid >= len(c.buffers) {
		c.buffers = append(c.buffers, make([]threadBuf, tid+1-len(c.buffers))...)
	}
	return &c.buffers[tid]
}

// record appends an event to the calling thread's buffer.
func (c *Ctx) record(ec image.ExecCtx, k Kind, id int32, a, b int64) {
	c.bytes += EventBytes
	if c.countOnly {
		return
	}
	tid := ec.ThreadID()
	tb := c.buffer(tid)
	if c.bufCap > 0 && tb.n >= c.bufCap && !c.overflowed(ec, tb, int32(tid), k, id) {
		return
	}
	tb.push(Event{At: ec.Now(), Rank: c.rank, TID: int32(tid), Kind: k, ID: id, A: a, B: b})
	if c.flushAt > 0 && tb.n >= c.flushAt {
		// Mid-run buffer flush: the thread pays for draining its own
		// buffer to the trace sink.
		ec.Charge(int64(tb.n) * flushCyclesPerEvent)
		c.col.appendThread(tb)
		c.midFlush++
	}
}

// MidRunFlushes reports how many times a full buffer was drained before
// program termination.
func (c *Ctx) MidRunFlushes() int { return c.midFlush }

// overflowed applies the configured overflow policy when thread tid's
// buffer tb is full and the event (k, id) wants in. It reports whether the
// arriving event should still be appended.
func (c *Ctx) overflowed(ec image.ExecCtx, tb *threadBuf, tid int32, k Kind, id int32) bool {
	c.overflows++
	switch c.overflow {
	case fault.OverflowFlushEarly:
		// Drain the full buffer to the collector, charging the thread
		// for the I/O, then let the new event start a fresh buffer.
		n := tb.n
		ec.Charge(int64(n) * flushCyclesPerEvent)
		c.col.appendThread(tb)
		c.midFlush++
		c.faultEvent(ec, fmt.Sprintf("thread %d buffer full (%d events): flushed early", tid, n))
		return true
	case fault.OverflowDropOldest:
		n := tb.n
		tb.dropOldest()
		if !tb.dropNoted {
			tb.dropNoted = true
			c.faultEvent(ec, fmt.Sprintf("thread %d buffer full (%d events): dropping oldest", tid, n+1))
		}
		return true
	case fault.OverflowDisableProbe:
		// Deactivate the offending probe so it stops producing data;
		// events that have no probe to disable (message and region
		// records) are discarded instead.
		if (k == Enter || k == Exit) && id >= 0 && int(id) < len(c.fns) && c.fns[id].active {
			c.fns[id].active = false
			c.faultEvent(ec, fmt.Sprintf("thread %d buffer full: disabled probe %s", tid, c.names[id]))
		}
		return false
	}
	return true
}

// Overflows reports how many times a fault-capped buffer overflowed.
func (c *Ctx) Overflows() int { return c.overflows }

// faultEvent logs a trace-overflow fault on the injector, if any.
func (c *Ctx) faultEvent(ec image.ExecCtx, detail string) {
	if c.inj == nil {
		return
	}
	c.inj.Record(ec.Now(), fault.KindOverflow, c.node, int(c.rank), detail)
}

// Begin is VT_begin: charge the table lookup; if the symbol is active,
// record a timestamped Enter event.
func (c *Ctx) Begin(ec image.ExecCtx, id int32) { c.probe(ec, Enter, id) }

// End is VT_end.
func (c *Ctx) End(ec image.ExecCtx, id int32) { c.probe(ec, Exit, id) }

// probe is the body of Begin (k = Enter) and End (k = Exit).
func (c *Ctx) probe(ec image.ExecCtx, k Kind, id int32) {
	if !c.ready {
		return
	}
	f := &c.fns[id]
	ec.Charge(lookupCycles)
	f.hits++
	f.cycles += lookupCycles
	if !f.active {
		return
	}
	ec.Charge(recordCycles)
	f.cycles += recordCycles
	f.recorded++
	if k == Enter {
		f.calls++
	}
	c.record(ec, k, id, 0, 0)
}

// BeginSnippet returns an instrumentation snippet calling Begin for id —
// the payload dynprof places in mini-trampolines and the Guide compiler
// compiles into prologues.
func (c *Ctx) BeginSnippet(id int32) image.Snippet {
	return func(ec image.ExecCtx) { c.Begin(ec, id) }
}

// EndSnippet returns a snippet calling End for id.
func (c *Ctx) EndSnippet(id int32) image.Snippet {
	return func(ec image.ExecCtx) { c.End(ec, id) }
}

// TraceBytes reports the bytes of trace data this rank has produced.
func (c *Ctx) TraceBytes() int { return c.bytes }

// QueueChanges stages configuration updates on this rank to be distributed
// by the next ConfSync — the dynamic-control-of-instrumentation API the
// monitoring tool drives.
func (c *Ctx) QueueChanges(chs []Change) {
	c.pending = append(c.pending, chs...)
}

// PendingChanges reports how many updates are staged.
func (c *Ctx) PendingChanges() int { return len(c.pending) }

// UnknownFuncError reports configuration changes whose exact (wildcard-free)
// patterns name no registered function. Such a change could never alter the
// activation table; silently absorbing it hides controller and tool bugs.
type UnknownFuncError struct {
	Patterns []string // the offending patterns, in batch order
}

func (e *UnknownFuncError) Error() string {
	return fmt.Sprintf("vt: changes name unknown functions: %s",
		strings.Join(e.Patterns, ", "))
}

// ApplyChanges applies configuration updates to the activation table and
// bumps the generation. A batch containing an exact pattern that matches no
// registered function is rejected atomically with *UnknownFuncError: no rule
// in the batch is applied and the generation does not advance. Prefix
// patterns (trailing '*') are exempt — they legitimately match functions
// registered later.
//
// Only the batch's rules are applied, in order, to cfgOn; as the last
// matching rule wins, this equals re-matching every rule ever set. active
// then takes cfgOn, re-enabling probes overflow handling disabled.
func (c *Ctx) ApplyChanges(chs []Change) error {
	var unknown []string
	for _, ch := range chs {
		if _, ok := c.ids[ch.Pattern]; !ok && !strings.HasSuffix(ch.Pattern, "*") {
			unknown = append(unknown, ch.Pattern)
		}
	}
	if len(unknown) > 0 {
		return &UnknownFuncError{Patterns: unknown}
	}
	if c.cfg == nil {
		c.cfg = &Config{}
	}
	for _, ch := range chs {
		c.cfg.Set(ch.Pattern, ch.Active)
		prefix, ok := strings.CutSuffix(ch.Pattern, "*")
		if !ok {
			c.fns[c.ids[ch.Pattern]].cfgOn = ch.Active
			continue
		}
		for id, name := range c.names {
			if strings.HasPrefix(name, prefix) {
				c.fns[id].cfgOn = ch.Active
			}
		}
	}
	for id := range c.fns {
		c.fns[id].active = c.fns[id].cfgOn
	}
	c.gen++
	return nil
}

// ProbeCost is one function's instrumentation cost attribution: how often
// its probes fired, how many events were actually recorded, and the cycles
// the library charged through them.
type ProbeCost struct {
	ID       int32
	Name     string
	Active   bool
	Hits     int64 // Begin/End firings, active or not (each pays the lookup)
	Recorded int64 // events recorded while active
	Cycles   int64 // total library cycles charged through this probe
}

// FloorCycles is the unavoidable part of the probe's cost: every firing
// pays the table lookup whether or not the symbol is active, so this floor
// persists after deactivation.
func (pc ProbeCost) FloorCycles() int64 { return pc.Hits * lookupCycles }

// RemovableCycles is the part of the probe's cost that deactivating it
// reclaims: the timestamp-and-record cycles of events actually collected.
func (pc ProbeCost) RemovableCycles() int64 { return pc.Cycles - pc.Hits*lookupCycles }

// CostSnapshot returns per-probe cost counters in function-id order. An
// adaptive controller diffs consecutive snapshots to attribute perturbation
// per function within a sync epoch.
func (c *Ctx) CostSnapshot() []ProbeCost {
	out := make([]ProbeCost, len(c.names))
	for id, f := range c.fns {
		out[id] = ProbeCost{
			ID:       int32(id),
			Name:     c.names[id],
			Active:   f.active,
			Hits:     f.hits,
			Recorded: f.recorded,
			Cycles:   f.cycles,
		}
	}
	return out
}

// Flush moves all buffered events and the function table to the collector;
// called at MPI_Finalize / program end ("the collected data is dumped to a
// trace file at program termination").
func (c *Ctx) Flush() {
	table := make(map[int32]string, len(c.names))
	for id, n := range c.names {
		table[int32(id)] = n
	}
	c.col.AddFuncTable(c.rank, table)
	for tid := range c.buffers { // ascending thread ids: a deterministic order
		tb := &c.buffers[tid]
		c.col.appendThread(tb)
		if cap(tb.cur) == chunkEvents {
			freeChunk(tb.cur)
			tb.cur = nil
		}
	}
}
