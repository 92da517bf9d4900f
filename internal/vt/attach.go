package vt

import (
	"dynprof/internal/fault"
	"dynprof/internal/mpi"
	"dynprof/internal/proc"
)

// AttachOption configures an Attach or AttachLocal call.
type AttachOption func(*attachCfg)

type attachCfg struct {
	cfg       *Config
	col       *Collector
	countOnly bool
	traceMPI  bool
	traceOMP  bool
	bufEvents int
	overflow  fault.OverflowPolicy
	inj       *fault.Injector
}

// WithConfig uses a parsed VT configuration file for every rank.
func WithConfig(cfg *Config) AttachOption {
	return func(a *attachCfg) { a.cfg = cfg }
}

// WithConfigText parses text as a VT configuration file, panicking on a
// syntax error (experiment definitions want a one-liner).
func WithConfigText(text string) AttachOption {
	cfg := MustParseConfig(text)
	return func(a *attachCfg) { a.cfg = cfg }
}

// WithCollector directs flushed events to col instead of a fresh one.
func WithCollector(col *Collector) AttachOption {
	return func(a *attachCfg) { a.col = col }
}

// WithCountOnly keeps cost and statistics accounting but drops event
// payloads (for large sweeps where the trace itself is not inspected).
func WithCountOnly() AttachOption {
	return func(a *attachCfg) { a.countOnly = true }
}

// WithTraceMPI enables MPI wrapper event logging.
func WithTraceMPI() AttachOption {
	return func(a *attachCfg) { a.traceMPI = true }
}

// WithTraceOMP enables Guidetrace parallel-region event logging.
func WithTraceOMP() AttachOption {
	return func(a *attachCfg) { a.traceOMP = true }
}

// WithBuffer caps every thread's trace buffer at n events, resolving
// overflows with the given policy (the fault model's data-pressure knob).
func WithBuffer(n int, policy fault.OverflowPolicy) AttachOption {
	return func(a *attachCfg) { a.bufEvents, a.overflow = n, policy }
}

// WithFaults routes overflow fault events to inj.
func WithFaults(inj *fault.Injector) AttachOption {
	return func(a *attachCfg) { a.inj = inj }
}

// Attachment is the instrumentation library attached to a job: one Ctx
// per MPI rank (or a single Ctx for a local OpenMP process), all feeding
// one collector.
type Attachment struct {
	world *mpi.World // nil for AttachLocal
	col   *Collector
	ctxs  []*Ctx
}

// Attach builds a library instance for every rank of world, all wired to
// one collector. It replaces hand-rolled per-rank NewCtx loops: the Ctx
// for rank r exists immediately (Ctx(r)), and Bind registers the rank's
// main thread with the world through the MPI adapter.
func Attach(world *mpi.World, opts ...AttachOption) *Attachment {
	a := build(opts)
	att := &Attachment{world: world, col: a.col}
	place := world.Placement()
	for r := 0; r < world.Size(); r++ {
		att.ctxs = append(att.ctxs, NewCtx(Options{
			Rank:         r,
			Config:       a.cfg,
			Collector:    a.col,
			TraceMPI:     a.traceMPI,
			CountOnly:    a.countOnly,
			BufferEvents: a.bufEvents,
			Overflow:     a.overflow,
			Faults:       a.inj,
			Node:         place.NodeOf(r),
		}))
	}
	return att
}

// AttachLocal builds a single library instance for a non-MPI (OpenMP)
// process running on the given node.
func AttachLocal(node int, opts ...AttachOption) *Attachment {
	a := build(opts)
	return &Attachment{col: a.col, ctxs: []*Ctx{NewCtx(Options{
		Rank:         0,
		Config:       a.cfg,
		Collector:    a.col,
		TraceOMP:     a.traceOMP,
		CountOnly:    a.countOnly,
		BufferEvents: a.bufEvents,
		Overflow:     a.overflow,
		Faults:       a.inj,
		Node:         node,
	})}}
}

func build(opts []AttachOption) *attachCfg {
	a := &attachCfg{}
	for _, o := range opts {
		o(a)
	}
	if a.col == nil {
		a.col = NewCollector()
	}
	return a
}

// Ctx returns rank r's library instance (index 0 for AttachLocal).
func (att *Attachment) Ctx(r int) *Ctx { return att.ctxs[r] }

// Size reports the number of attached ranks.
func (att *Attachment) Size() int { return len(att.ctxs) }

// Collector returns the attachment's shared trace collector.
func (att *Attachment) Collector() *Collector { return att.col }

// Bind registers rank r's main thread with the MPI world, interposing
// the rank's library instance via the wrapper-interface adapter, and
// returns the rank's MPI context. Only valid after Attach.
func (att *Attachment) Bind(r int, t *proc.Thread) *mpi.Ctx {
	if att.world == nil {
		panic("vt: Bind on a local (non-MPI) attachment")
	}
	return att.world.Register(r, t, &MPIAdapter{C: att.ctxs[r]})
}

// OMPHooks returns the Guidetrace hook adapter for a local attachment's
// single library instance.
func (att *Attachment) OMPHooks() *OMPAdapter {
	return &OMPAdapter{C: att.ctxs[0]}
}
