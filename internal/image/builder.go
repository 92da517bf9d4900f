package image

import (
	"fmt"

	"dynprof/internal/isa"
)

// FuncSpec describes one function to lay out in an image. The compiler
// (package guide) translates an application's function table into specs;
// static instrumentation appears as snippet calls compiled into the
// prologue and epilogues.
type FuncSpec struct {
	// Name is the function's linkage name. Must be unique per image.
	Name string
	// BodyWords is the size of the function body in instruction words.
	// Body words are address-space filler (the numeric work itself runs
	// as native Go code through the call gate); they give functions
	// realistic extents for symbol-range lookups.
	BodyWords int
	// Exits is the number of return points (at least 1).
	Exits int
	// EntrySnippets are snippet ids called in the prologue, after the
	// entry probe slot — statically inserted instrumentation.
	EntrySnippets []int64
	// ExitSnippets are snippet ids called before each return.
	ExitSnippets []int64
}

// Builder assembles an Image from function specs.
type Builder struct {
	name          string
	words         []isa.Word
	syms          []*Symbol
	symByName     map[string]*Symbol
	regions       int
	nextSnippetID int64
}

// NewBuilder starts building an image named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, symByName: make(map[string]*Symbol)}
}

// ReserveSnippetID hands out a snippet id for the compiler to reference in
// FuncSpec snippet lists; the loader binds the actual closure at load time.
func (b *Builder) ReserveSnippetID() int64 {
	b.nextSnippetID++
	return b.nextSnippetID
}

// AddFunc lays out one function and returns its symbol.
//
// Layout: [entry probe slot (Nop)] [entry snippet calls...] [Body marker]
// [body words...] then per exit: [exit probe slot (Nop)] [exit snippet
// calls...] [Ret].
func (b *Builder) AddFunc(spec FuncSpec) (*Symbol, error) {
	if spec.Name == "" {
		return nil, fmt.Errorf("image: function with empty name")
	}
	if _, dup := b.symByName[spec.Name]; dup {
		return nil, fmt.Errorf("image: duplicate function %q", spec.Name)
	}
	if spec.Exits < 1 {
		return nil, fmt.Errorf("image: function %q needs at least one exit", spec.Name)
	}
	if spec.BodyWords < 0 {
		return nil, fmt.Errorf("image: function %q has negative body size", spec.Name)
	}
	sym := &Symbol{Name: spec.Name, Region: b.regions, Entry: Addr(len(b.words))}
	b.regions += 1 + spec.Exits
	b.words = append(b.words, isa.Word{Op: isa.Nop}) // entry probe slot
	for _, id := range spec.EntrySnippets {
		b.words = append(b.words, isa.Word{Op: isa.SnippetCall, Arg: id})
	}
	sym.BodyAt = Addr(len(b.words))
	b.words = append(b.words, isa.Word{Op: isa.Body})
	for i := 0; i < spec.BodyWords; i++ {
		b.words = append(b.words, isa.Word{Op: isa.Work})
	}
	for e := 0; e < spec.Exits; e++ {
		sym.Exits = append(sym.Exits, Addr(len(b.words)))
		b.words = append(b.words, isa.Word{Op: isa.Nop}) // exit probe slot
		for _, id := range spec.ExitSnippets {
			b.words = append(b.words, isa.Word{Op: isa.SnippetCall, Arg: id})
		}
		b.words = append(b.words, isa.Word{Op: isa.Ret})
	}
	sym.End = Addr(len(b.words))
	b.syms = append(b.syms, sym)
	b.symByName[spec.Name] = sym
	return sym, nil
}

// Build finalises the image. The builder must not be reused afterwards.
func (b *Builder) Build() *Image {
	return &Image{
		name:          b.name,
		words:         b.words,
		syms:          b.syms,
		symByName:     b.symByName,
		textEnd:       Addr(len(b.words)),
		snippets:      make(map[int64]Snippet),
		nextSnippetID: b.nextSnippetID,
		tramps:        make(map[Addr]*baseTramp),
		progs:         make([]*regionProg, b.regions),
	}
}
