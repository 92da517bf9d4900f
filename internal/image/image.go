// Package image models an executable process image as a word-addressed
// array of simulated instructions with a symbol table, plus the dynamic
// patching machinery of Figure 1 of the paper: probe points displaced by
// jumps into base trampolines, which chain one or more mini-trampolines
// that invoke instrumentation snippets.
package image

import (
	"fmt"
	"sort"

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
	textEnd   Addr

	snippets      map[int64]Snippet
	nextSnippetID int64

	tramps map[Addr]*baseTramp // keyed by patched probe-point address

	// heapWords counts words of dynamically generated code currently
	// allocated (for trace/size accounting and tests).
	heapWords int

	// gen counts image mutations (patches, snippet rebinds); progs caches
	// the compiled form of each executed probe region, indexed by region
	// number and valid only while its recorded generation matches gen.
	gen   uint64
	progs []*regionProg
}

// mutated invalidates every compiled region program. Called on any change
// that could alter what an interpreter walk observes: word writes and
// snippet (re)binding.
func (img *Image) mutated() { img.gen++ }

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

// SymbolNames returns all function names in address order.
func (img *Image) SymbolNames() []string {
	names := make([]string, len(img.syms))
	for i, s := range img.syms {
		names[i] = s.Name
	}
	return names
}

// NewSnippetID reserves a fresh snippet id.
func (img *Image) NewSnippetID() int64 {
	img.nextSnippetID++
	return img.nextSnippetID
}

// BindSnippet associates id with an executable snippet. Loading a binary
// into a process binds per-process closures (e.g. calls into that
// process's VT library instance) to the ids the compiler emitted.
func (img *Image) BindSnippet(id int64, fn Snippet) {
	if fn == nil {
		panic("image: BindSnippet with nil snippet")
	}
	img.snippets[id] = fn
	img.mutated()
}

// Snippet returns the snippet bound to id.
func (img *Image) Snippet(id int64) (Snippet, bool) {
	fn, ok := img.snippets[id]
	return fn, ok
}

// Clone produces an identical, independent copy of the image: the per-rank
// address space of an MPI process. Snippet bindings are copied; callers
// normally rebind per-process closures after cloning. Patches (trampolines)
// are cloned too, though binaries are usually cloned pristine.
func (img *Image) Clone() *Image {
	c := &Image{
		name:          img.name,
		words:         append([]isa.Word(nil), img.words...),
		syms:          img.syms, // immutable, shared
		symByName:     img.symByName,
		textEnd:       img.textEnd,
		snippets:      make(map[int64]Snippet, len(img.snippets)),
		nextSnippetID: img.nextSnippetID,
		tramps:        make(map[Addr]*baseTramp, len(img.tramps)),
		heapWords:     img.heapWords,
		progs:         make([]*regionProg, len(img.progs)),
	}
	for id, fn := range img.snippets {
		c.snippets[id] = fn
	}
	for at, t := range img.tramps {
		tc := *t
		tc.minis = make([]*mini, len(t.minis))
		for i, m := range t.minis {
			mc := *m
			tc.minis[i] = &mc
		}
		c.tramps[at] = &tc
	}
	return c
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

// Sym reports the symbol the probe instruments.
func (h *ProbeHandle) Sym() *Symbol { return h.sym }

// Kind reports whether this is an entry or exit probe.
func (h *ProbeHandle) Kind() PointKind { return h.kind }

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
// mirroring DPCL's separate install and activate steps.
func (img *Image) InsertProbe(sym *Symbol, kind PointKind, exitIndex int, snippetID int64) (*ProbeHandle, error) {
	if _, ok := img.snippets[snippetID]; !ok {
		return nil, fmt.Errorf("image %s: snippet %d not bound", img.name, snippetID)
	}
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		return nil, err
	}
	t, ok := img.tramps[at]
	if !ok {
		t = img.buildBaseTrampoline(at)
	}
	m := &mini{snippet: snippetID}
	m.at = img.alloc(miniWords)
	img.words[m.at] = isa.Word{Op: isa.Nop} // inactive until SetActive(true)
	t.minis = append(t.minis, m)
	img.relinkChain(t)
	img.mutated()
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
	if active {
		h.img.words[h.mini.at] = isa.Word{Op: isa.SnippetCall, Arg: h.mini.snippet}
	} else {
		h.img.words[h.mini.at] = isa.Word{Op: isa.Nop}
	}
	h.img.mutated()
}

// Remove unlinks the probe's mini-trampoline from its chain. When the last
// mini at a probe point is removed, the original instruction is restored at
// the probe point and the base trampoline is freed: the function reverts to
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
	t.minis = append(t.minis[:idx], t.minis[idx+1:]...)
	h.mini.removed = true
	h.img.freeWords(h.mini.at, miniWords)
	h.img.mutated()
	if len(t.minis) == 0 {
		h.img.words[t.at] = t.relocated
		h.img.freeWords(t.base, baseWords)
		delete(h.img.tramps, h.at)
		return nil
	}
	h.img.relinkChain(t)
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
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		return false
	}
	_, ok := img.tramps[at]
	return ok
}

// ChainLen reports the number of mini-trampolines chained at a probe point.
func (img *Image) ChainLen(sym *Symbol, kind PointKind, exitIndex int) int {
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		return 0
	}
	if t, ok := img.tramps[at]; ok {
		return len(t.minis)
	}
	return 0
}

// ActiveProbes reports how many of a probe point's mini-trampolines are
// currently active — the observable instrumentation state recovery paths
// must reconverge (addresses and snippet IDs of a reinstalled probe may
// legitimately differ; its firing behaviour may not).
func (img *Image) ActiveProbes(sym *Symbol, kind PointKind, exitIndex int) int {
	at, err := probeAddr(sym, kind, exitIndex)
	if err != nil {
		return 0
	}
	n := 0
	if t, ok := img.tramps[at]; ok {
		for _, m := range t.minis {
			if m.active {
				n++
			}
		}
	}
	return n
}

// PatchedSymbols lists the names of symbols with at least one live probe,
// sorted for stable output.
func (img *Image) PatchedSymbols() []string {
	seen := make(map[string]bool)
	for at := range img.tramps {
		for _, s := range img.syms {
			if at >= s.Entry && at < s.End {
				seen[s.Name] = true
				break
			}
		}
	}
	names := make([]string, 0, len(seen))
	for n := range seen {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}
