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
	// per-thread buffer reaches its flush threshold mid-run — the
	// data-pressure cost behind the paper's motivation that monitoring
	// data grows at megabytes per second per processor and overwhelms
	// collection.
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

	inj  *fault.Injector
	node int

	gen     int64
	pending []Change

	syncSym, breakSym *image.Symbol // ConfSync gates, resolved in MPI_Init; nil if absent
}

// funcState is one registered function's activation and counters.
type funcState struct {
	active bool  // the activation the configuration rules derive
	calls  int64 // enter count (runtime statistics)
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
	// Faults, when non-nil, receives a structured fault event each time
	// a VT_confsync rejects its batch of changes.
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
	c.fns = append(c.fns, funcState{active: c.cfg.Active(name)})
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
	n    int       // events held
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
	if cap(tb.cur) != chunkEvents {
		tb.cur = grown(tb.cur)
		return
	}
	if tb.full == nil {
		tb.full = make([][]Event, 0, chainHint)
	}
	tb.full = append(tb.full, tb.cur)
	tb.cur = newChunk()
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

// BeginSnippet returns a snippet calling VT_begin for id in the executing
// process's library — what dynprof places in mini-trampolines and the
// Guide compiler compiles into prologues.
func BeginSnippet(id int32) image.Snippet {
	return func(ec image.ExecCtx) { ec.Library().Begin(ec, id) }
}

// EndSnippet returns a snippet calling VT_end for id.
func EndSnippet(id int32) image.Snippet {
	return func(ec image.ExecCtx) { ec.Library().End(ec, id) }
}

// TraceBytes reports the bytes of trace data this rank has produced.
func (c *Ctx) TraceBytes() int { return c.bytes }

// QueueChanges stages configuration updates on this rank to be distributed
// by the next ConfSync — the dynamic-control-of-instrumentation API the
// monitoring tool drives.
func (c *Ctx) QueueChanges(chs []Change) {
	c.pending = append(c.pending, chs...)
}

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
// Only the batch's rules are applied, in order; as the last matching rule
// wins, this equals re-matching every rule ever set.
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
			c.fns[c.ids[ch.Pattern]].active = ch.Active
			continue
		}
		for id, name := range c.names {
			if strings.HasPrefix(name, prefix) {
				c.fns[id].active = ch.Active
			}
		}
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
