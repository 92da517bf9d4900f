// Package image models an executable process image as a word-addressed
// array of simulated instructions with a symbol table, plus the dynamic
// patching machinery of Figure 1 of the paper: probe points displaced by
// jumps into base trampolines, which chain one or more mini-trampolines
// that invoke instrumentation snippets.
package image

import (
	"fmt"
	"maps"
	"slices"

	"dynprof/internal/des"
	"dynprof/internal/isa"
)

// Addr is a word address within an image.
type Addr int

// ExecCtx is the execution context handed to instrumentation snippets: the
// thread that hit the probe point. It is implemented by proc.Thread; the
// indirection avoids an import cycle between image and proc.
type ExecCtx interface {
	// ThreadID reports the executing thread's id within its process.
	ThreadID() int
	// Now reports the current virtual time (the probe's timestamp).
	Now() des.Time
	// Charge adds instrumentation cycles to the thread's account, e.g.
	// the cost of recording a trace event inside the VT library.
	Charge(cycles int64)
	// Library reports the executing process's instrumentation library
	// (nil if none), through which one binary's compiled-in snippets
	// serve every process loaded from it.
	Library() Library
}

// Library is the VT_begin/VT_end interface of an instrumentation library
// instance; vt.Ctx implements it.
type Library interface {
	Begin(ec ExecCtx, fn int32)
	End(ec ExecCtx, fn int32)
}

// Snippet is a block of dynamically generated (or statically linked)
// instrumentation code: a Go closure standing in for the machine code a
// real instrumenter would synthesise.
type Snippet func(ctx ExecCtx)

// PointKind distinguishes the probe points a symbol exposes. The paper's
// prototype limits itself to subroutine entry and exit instrumentation.
type PointKind int

const (
	// EntryPoint is the probe slot at a function's first instruction.
	EntryPoint PointKind = iota
	// ExitPoint is a probe slot immediately before one of the function's
	// return instructions.
	ExitPoint
)

func (k PointKind) String() string {
	if k == EntryPoint {
		return "entry"
	}
	return "exit"
}

// Symbol describes one function in the image's symbol table. Symbols are
// immutable once the image is built and are shared between clones.
type Symbol struct {
	// Name is the function's linkage name.
	Name string
	// Region numbers the symbol's probe regions densely across the image:
	// the entry region is Region, exit i is Region+1+i.
	Region int
	// Entry is the address of the function's entry probe slot.
	Entry Addr
	// BodyAt is the address of the Body marker ending the prologue.
	BodyAt Addr
	// Exits are the addresses of the function's exit probe slots, one
	// per return point.
	Exits []Addr
	// End is one past the function's last word.
	End Addr
}

// Image is a simulated process address space: text (functions) followed by
// a heap region where a patcher allocates dynamically generated code.
type Image struct {
	name      string
	words     []isa.Word
	syms      []*Symbol
	symByName map[string]*Symbol

	// built holds the snippets compiled into the binary, id i at
	// built[i-1]; they stay bound for the image's life and every image
	// of the binary shares them. bound holds the snippets patchers bound
	// since (BindSnippet), ids above len(built).
	built         []Snippet
	bound         map[int64]boundSnippet
	nextSnippetID int64

	tramps map[Addr]*baseTramp // keyed by patched probe-point address

	// heapWords counts words of dynamically generated code currently
	// allocated (for trace/size accounting and tests).
	heapWords int

	// gen counts image mutations (patches, snippet bindings); progs caches
	// the compiled form of each probe region, indexed by region number
	// and valid only while its recorded generation matches gen.
	gen   uint64
	progs []*regionProg

	// shared marks words, bound snippets and progs as possibly referenced by
	// other images: read-only, with every program current.
	shared bool
}

// mutate precedes any change an interpreter walk could observe (word
// writes, snippet binding) and invalidates every compiled program. A
// shared image first copies its state, with an empty program table.
func (img *Image) mutate() {
	if img.shared {
		img.words = slices.Clone(img.words)
		img.bound = maps.Clone(img.bound)
		img.progs = make([]*regionProg, len(img.progs))
		img.shared = false
	}
	img.gen++
}

// share compiles every region program and marks the image's state shared:
// from then on its walks only read it, so any number of processes may run
// and clone it concurrently.
func (img *Image) share() {
	if img.shared {
		return
	}
	for _, s := range img.syms {
		img.compile(s.Region, s.Entry, nil, s.Name)
		for i, at := range s.Exits {
			img.compile(s.Region+1+i, at, nil, s.Name)
		}
	}
	img.shared = true
}

// baseTramp is the bookkeeping for one patched probe point: the base
// trampoline plus its chain of mini-trampolines.
type baseTramp struct {
	at        Addr     // probe-point address whose word was displaced
	relocated isa.Word // the original word, relocated into the trampoline
	base      Addr     // first word of the base trampoline
	chainHead Addr     // address of the base's jump-to-first-mini slot
	relocAt   Addr     // address of the relocated word inside the base
	minis     []*mini  // chain, in execution order
}

// mini is one mini-trampoline: [SnippetCall id][Jmp next].
type mini struct {
	at      Addr
	snippet int64
	active  bool
	removed bool
}

const (
	miniWords = 2 // SnippetCall + Jmp
	baseWords = 5 // SaveRegs, chain-slot, relocated, RestoreRegs, Jmp-back
)

// Name reports the image (binary) name.
func (img *Image) Name() string { return img.name }

// Words reports the current image size in words (text + live heap).
func (img *Image) Words() int { return len(img.words) }

// HeapWords reports how many words of dynamically generated code are live.
func (img *Image) HeapWords() int { return img.heapWords }

// Word returns the instruction at addr.
func (img *Image) Word(at Addr) isa.Word {
	if at < 0 || int(at) >= len(img.words) {
		panic(fmt.Sprintf("image %s: address %d out of range [0,%d)", img.name, at, len(img.words)))
	}
	return img.words[at]
}

// Symbols returns the image's symbol table in address order.
func (img *Image) Symbols() []*Symbol { return img.syms }

// Lookup finds a symbol by name.
func (img *Image) Lookup(name string) (*Symbol, bool) {
	s, ok := img.symByName[name]
	return s, ok
}

// MustLookup finds a symbol by name and panics if it is absent. Use only
// where absence is a programming error (e.g. compiler-emitted names).
func (img *Image) MustLookup(name string) *Symbol {
	s, ok := img.symByName[name]
	if !ok {
		panic(fmt.Sprintf("image %s: no symbol %q", img.name, name))
	}
	return s
}

// boundSnippet is a snippet bound by a patcher and the number of live
// probes that call it.
type boundSnippet struct {
	fn   Snippet
	refs int
}

// snippet returns the snippet bound under id, or nil.
func (img *Image) snippet(id int64) Snippet {
	if id >= 1 && id <= int64(len(img.built)) {
		return img.built[id-1]
	}
	return img.bound[id].fn
}

// BindSnippet binds fn, the code a patcher generated for this process,
// under a fresh snippet id and returns the id. The probes inserted with
// the id own the binding: it lasts until the last of them is removed, or
// ends at once if the InsertProbe that would have been its first fails, so
// a long-lived process that tools patch over and over keeps only the
// snippets its probes still call.
func (img *Image) BindSnippet(fn Snippet) int64 {
	if fn == nil {
		panic("image: BindSnippet with nil snippet")
	}
	img.mutate()
	img.nextSnippetID++
	if img.bound == nil {
		img.bound = make(map[int64]boundSnippet)
	}
	img.bound[img.nextSnippetID] = boundSnippet{fn: fn}
	return img.nextSnippetID
}

// refSnippet adds delta to the count of live probes calling snippet id
// and unbinds a bound snippet no probe calls any more; one id may be
// inserted at several points. Compiled-in snippets are not counted.
func (img *Image) refSnippet(id int64, delta int) {
	b, ok := img.bound[id]
	if !ok {
		return
	}
	img.mutate()
	if b.refs += delta; b.refs > 0 {
		img.bound[id] = b
	} else {
		delete(img.bound, id)
	}
}

// Clone produces an independent copy of the image, the address space of a
// new process running the same binary. The two share words, snippets and
// region programs until one is patched (see mutate), so a process no tool
// touches costs only its header; cloning a shared image only reads it.
// Trampoline bookkeeping is copied, though binaries are cloned pristine.
func (img *Image) Clone() *Image {
	img.share()
	c := *img
	c.tramps = maps.Clone(img.tramps) // nil for a pristine image
	for at, t := range c.tramps {
		tc := *t
		tc.minis = make([]*mini, len(t.minis))
		for i, m := range t.minis {
			mc := *m
			tc.minis[i] = &mc
		}
		c.tramps[at] = &tc
	}
	return &c
}

// alloc reserves n words of heap space and returns the base address.
func (img *Image) alloc(n int) Addr {
	base := Addr(len(img.words))
	for i := 0; i < n; i++ {
		img.words = append(img.words, isa.Word{Op: isa.Illegal})
	}
	img.heapWords += n
	return base
}

// probeAddr resolves (sym, kind, exitIndex) to the patchable address.
func probeAddr(sym *Symbol, kind PointKind, exitIndex int) (Addr, error) {
	switch kind {
	case EntryPoint:
		return sym.Entry, nil
	case ExitPoint:
		if exitIndex < 0 || exitIndex >= len(sym.Exits) {
			return 0, fmt.Errorf("image: %s has %d exits, no exit %d", sym.Name, len(sym.Exits), exitIndex)
		}
		return sym.Exits[exitIndex], nil
	default:
		return 0, fmt.Errorf("image: unknown probe kind %d", kind)
	}
}

// ProbeHandle identifies one inserted probe (one mini-trampoline) so it can
// be deactivated or removed later.
type ProbeHandle struct {
	img  *Image
	at   Addr
	mini *mini
	sym  *Symbol
	kind PointKind
}

// Active reports whether the probe currently fires when executed.
func (h *ProbeHandle) Active() bool { return h.mini.active }

// Removed reports whether the probe has been unlinked from its chain (its
// handle is dead; recovery paths must not touch it again).
func (h *ProbeHandle) Removed() bool { return h.mini.removed }

// InsertProbe patches a probe into sym at the given point: if the probe
// point is not yet displaced, a base trampoline is synthesised (relocating
// the original word and bracketing it with register save/restore), and the
// probe's snippet is placed in a new mini-trampoline appended to the
// point's chain. The probe starts inactive; activate it with SetActive,
// mirroring DPCL's separate install and activate steps. An insert that
// fails releases a snippet binding no probe calls yet (see BindSnippet).
func (img *Image) InsertProbe(sym *Symbol, kind PointKind, exitIndex int, snippetID int64) (*ProbeHandle, error) {
	if img.snippet(snippetID) == nil {
		return nil, fmt.Errorf("image %s: snippet %d not bound", img.name, snippetID)
	}
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		img.refSnippet(snippetID, 0)
		return nil, err
	}
	img.refSnippet(snippetID, 1)
	img.mutate()
	t, ok := img.tramps[at]
	if !ok {
		t = img.buildBaseTrampoline(at)
	}
	m := &mini{snippet: snippetID}
	m.at = img.alloc(miniWords)
	img.words[m.at] = isa.Word{Op: isa.Nop} // inactive until SetActive(true)
	t.minis = append(t.minis, m)
	img.relinkChain(t)
	return &ProbeHandle{img: img, at: at, mini: m, sym: sym, kind: kind}, nil
}

// buildBaseTrampoline displaces the word at `at` with a jump to a fresh
// base trampoline: SaveRegs, chain slot, relocated original word,
// RestoreRegs, jump back to at+1.
func (img *Image) buildBaseTrampoline(at Addr) *baseTramp {
	base := img.alloc(baseWords)
	t := &baseTramp{
		at:        at,
		relocated: img.words[at],
		base:      base,
		chainHead: base + 1,
		relocAt:   base + 2,
	}
	img.words[base] = isa.Word{Op: isa.SaveRegs}
	img.words[t.chainHead] = isa.Word{Op: isa.Jmp, Arg: int64(t.relocAt)} // empty chain: fall to relocated word
	img.words[t.relocAt] = t.relocated
	img.words[base+3] = isa.Word{Op: isa.RestoreRegs}
	img.words[base+4] = isa.Word{Op: isa.Jmp, Arg: int64(at) + 1}
	img.words[at] = isa.Word{Op: isa.Jmp, Arg: int64(base)}
	if img.tramps == nil {
		img.tramps = make(map[Addr]*baseTramp)
	}
	img.tramps[at] = t
	return t
}

// relinkChain rewrites the jump targets so the base trampoline's chain slot
// reaches each mini in order and the last mini returns to the relocated
// instruction, as in Figure 1.
func (img *Image) relinkChain(t *baseTramp) {
	next := t.relocAt
	for i := len(t.minis) - 1; i >= 0; i-- {
		m := t.minis[i]
		img.words[m.at+1] = isa.Word{Op: isa.Jmp, Arg: int64(next)}
		next = m.at
	}
	img.words[t.chainHead] = isa.Word{Op: isa.Jmp, Arg: int64(next)}
}

// SetActive enables or disables the probe by flipping its mini-trampoline
// payload between SnippetCall and Nop (the word stays in place, so
// re-activation is cheap). On a removed probe it does nothing: its words
// are freed.
func (h *ProbeHandle) SetActive(active bool) {
	if h.mini.removed || h.mini.active == active {
		return
	}
	h.mini.active = active
	h.img.mutate()
	if active {
		h.img.words[h.mini.at] = isa.Word{Op: isa.SnippetCall, Arg: h.mini.snippet}
	} else {
		h.img.words[h.mini.at] = isa.Word{Op: isa.Nop}
	}
}

// Remove unlinks the probe's mini-trampoline from its chain and releases
// its snippet binding if no other probe calls it. When the last mini at a
// probe point is removed, the original instruction is restored at the
// probe point and the base trampoline is freed: the function reverts to
// its pristine, zero-overhead form.
func (h *ProbeHandle) Remove() error {
	t, ok := h.img.tramps[h.at]
	if !ok {
		return fmt.Errorf("image %s: probe point %d not patched", h.img.name, h.at)
	}
	idx := -1
	for i, m := range t.minis {
		if m == h.mini {
			idx = i
			break
		}
	}
	if idx < 0 {
		return fmt.Errorf("image %s: probe already removed from %s %s", h.img.name, h.sym.Name, h.kind)
	}
	h.img.mutate()
	t.minis = append(t.minis[:idx], t.minis[idx+1:]...)
	h.mini.removed = true
	h.img.freeWords(h.mini.at, miniWords)
	if len(t.minis) == 0 {
		h.img.words[t.at] = t.relocated
		h.img.freeWords(t.base, baseWords)
		delete(h.img.tramps, h.at)
	} else {
		h.img.relinkChain(t)
	}
	h.img.refSnippet(h.mini.snippet, -1)
	return nil
}

// freeWords marks heap words as dead (Illegal) and updates accounting. The
// space is not reused; a real instrumenter would pool it, but address reuse
// buys nothing in the simulation and stable addresses ease debugging.
func (img *Image) freeWords(at Addr, n int) {
	for i := 0; i < n; i++ {
		img.words[at+Addr(i)] = isa.Word{Op: isa.Illegal}
	}
	img.heapWords -= n
}

// Patched reports whether the probe point of sym is currently displaced.
func (img *Image) Patched(sym *Symbol, kind PointKind, exitIndex int) bool {
	return img.tramp(sym, kind, exitIndex) != nil
}

// tramp returns the trampoline displacing a probe point, nil if none.
func (img *Image) tramp(sym *Symbol, kind PointKind, exitIndex int) *baseTramp {
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		return nil
	}
	return img.tramps[at]
}

// ChainLen reports the number of mini-trampolines chained at a probe point.
func (img *Image) ChainLen(sym *Symbol, kind PointKind, exitIndex int) int {
	if t := img.tramp(sym, kind, exitIndex); t != nil {
		return len(t.minis)
	}
	return 0
}

// ActiveProbes reports how many of a probe point's mini-trampolines are
// currently active — the observable instrumentation state recovery paths
// must reconverge (addresses and snippet IDs of a reinstalled probe may
// legitimately differ; its firing behaviour may not).
func (img *Image) ActiveProbes(sym *Symbol, kind PointKind, exitIndex int) int {
	n := 0
	if t := img.tramp(sym, kind, exitIndex); t != nil {
		for _, m := range t.minis {
			if m.active {
				n++
			}
		}
	}
	return n
}
