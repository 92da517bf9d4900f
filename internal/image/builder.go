package image

import (
	"fmt"

	"dynprof/internal/isa"
)

// FuncSpec describes one function to lay out in an image. The compiler
// (package guide) translates an application's function table into specs;
// static instrumentation appears as snippet calls compiled into the
// prologue and epilogues, shared by every process loaded from the image.
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
	// EntrySnippets are called in the prologue, after the entry probe
	// slot — statically inserted instrumentation.
	EntrySnippets []Snippet
	// ExitSnippets are called before each return.
	ExitSnippets []Snippet
}

// Builder assembles an Image from function specs.
type Builder struct {
	name      string
	words     []isa.Word
	syms      []*Symbol
	symByName map[string]*Symbol
	regions   int
	snippets  []Snippet // compiled-in snippet id i is snippets[i-1]
}

// NewBuilder starts building an image named name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, symByName: make(map[string]*Symbol)}
}

// call emits a SnippetCall word for fn under a fresh snippet id.
func (b *Builder) call(fn Snippet) {
	b.snippets = append(b.snippets, fn)
	id := int64(len(b.snippets))
	b.words = append(b.words, isa.Word{Op: isa.SnippetCall, Arg: id})
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
	for _, fn := range spec.EntrySnippets {
		b.call(fn)
	}
	sym.BodyAt = Addr(len(b.words))
	b.words = append(b.words, isa.Word{Op: isa.Body})
	for i := 0; i < spec.BodyWords; i++ {
		b.words = append(b.words, isa.Word{Op: isa.Work})
	}
	for e := 0; e < spec.Exits; e++ {
		sym.Exits = append(sym.Exits, Addr(len(b.words)))
		b.words = append(b.words, isa.Word{Op: isa.Nop}) // exit probe slot
		for _, fn := range spec.ExitSnippets {
			b.call(fn)
		}
		b.words = append(b.words, isa.Word{Op: isa.Ret})
	}
	sym.End = Addr(len(b.words))
	b.syms = append(b.syms, sym)
	b.symByName[spec.Name] = sym
	return sym, nil
}

// Build finalises the image, compiled and shared (see Clone). The builder
// must not be reused afterwards.
func (b *Builder) Build() *Image {
	img := &Image{
		name:          b.name,
		words:         b.words,
		syms:          b.syms,
		symByName:     b.symByName,
		built:         b.snippets,
		nextSnippetID: int64(len(b.snippets)),
		progs:         make([]*regionProg, b.regions),
	}
	img.share()
	return img
}
