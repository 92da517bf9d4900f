package guide

import (
	"fmt"

	"dynprof/internal/image"
	"dynprof/internal/vt"
)

// BuildOpts selects how the compiler instruments the application — the
// compile-time half of the Table 3 policies.
type BuildOpts struct {
	// StaticInstrument makes the Guide compiler insert VT_begin/VT_end
	// calls in every application function's prologue and epilogues (the
	// Full, Full-Off and Subset policies). When false, no subroutine
	// instrumentation is compiled in (None and Dynamic).
	StaticInstrument bool
	// Config is the VT configuration file linked with the binary; it is
	// read at library initialisation to deactivate symbols (Full-Off and
	// Subset use it).
	Config *vt.Config
	// TraceAPI enables runtime-API logging: Vampirtrace's MPI wrapper
	// events in an MPI binary, Guidetrace's parallel-region events in an
	// OpenMP one.
	TraceAPI bool
}

// Binary is a compiled application: the pristine image template plus the
// metadata the loader needs. It is read-only once built, so it may be
// launched any number of times, from several goroutines at once.
type Binary struct {
	app      *App
	opts     BuildOpts
	template *image.Image
	syms     []*image.Symbol // by Fn; shared by every clone of template
	fnOf     []int32         // by symbol Region: the Fn, or -1 (see tape.Tape.Start)
}

// runtime symbol sizes (words) — small library stubs in the image.
const (
	mpiInitWords  = 64
	mpiFinWords   = 32
	vtInitWords   = 24
	confSyncWords = 40
	confBreakWord = 1
)

// Build compiles app under opts. Every binary carries symbols for the
// runtime entry points an instrumenter needs to patch (MPI_Init /
// MPI_Finalize for MPI applications, VT_init for OpenMP applications) and
// for the dynamic-control API (VT_confsync, configuration_break).
func Build(app *App, opts BuildOpts) (*Binary, error) {
	if app.Main == nil {
		return nil, fmt.Errorf("guide: application %q has no main", app.Name)
	}
	b := image.NewBuilder(app.Name)
	type rtSym struct {
		name  string
		words int
	}
	var rtSyms []rtSym
	if app.Lang.IsMPI() {
		rtSyms = append(rtSyms, rtSym{"MPI_Init", mpiInitWords}, rtSym{"MPI_Finalize", mpiFinWords})
	} else {
		rtSyms = append(rtSyms, rtSym{"VT_init", vtInitWords})
	}
	rtSyms = append(rtSyms, rtSym{"VT_confsync", confSyncWords}, rtSym{vt.BreakpointSymbol, confBreakWord})
	for _, rs := range rtSyms {
		if _, err := b.AddFunc(image.FuncSpec{Name: rs.name, BodyWords: rs.words, Exits: 1}); err != nil {
			return nil, err
		}
	}

	syms := make([]*image.Symbol, len(app.Funcs))
	for i, f := range app.Funcs {
		exits := f.Exits
		if exits == 0 {
			exits = 1
		}
		spec := image.FuncSpec{Name: f.Name, BodyWords: f.Size, Exits: exits}
		if opts.StaticInstrument {
			// Function i is the i-th the loader registers (loadImage).
			spec.EntrySnippets = []image.Snippet{vt.BeginSnippet(int32(i))}
			spec.ExitSnippets = []image.Snippet{vt.EndSnippet(int32(i))}
		}
		sym, err := b.AddFunc(spec)
		if err != nil {
			return nil, fmt.Errorf("guide: compiling %s: %w", app.Name, err)
		}
		syms[i] = sym
	}
	img := b.Build()
	return &Binary{app: app, opts: opts, template: img, syms: syms, fnOf: fnByRegion(img, syms)}, nil
}

// fnByRegion maps each symbol's entry Region to its function handle, -1
// for the runtime symbols.
func fnByRegion(img *image.Image, syms []*image.Symbol) []int32 {
	n := 0
	for _, s := range img.Symbols() {
		n = max(n, s.Region+1+len(s.Exits))
	}
	fnOf := make([]int32, n)
	for i := range fnOf {
		fnOf[i] = -1
	}
	for f, s := range syms {
		fnOf[s.Region] = int32(f)
	}
	return fnOf
}

// App returns the compiled application.
func (bin *Binary) App() *App { return bin.app }

// Instrumented reports whether the compiler inserted static subroutine
// instrumentation.
func (bin *Binary) Instrumented() bool { return bin.opts.StaticInstrument }

// loadImage maps the binary into a process whose fresh library instance is
// v: a clone of the template (see image.Image.Clone). Each instrumented
// function is registered with VT_funcdef in declared order, so its id is
// the one its compiled-in snippets carry, the same on every process.
func (bin *Binary) loadImage(v *vt.Ctx) *image.Image {
	for i, f := range bin.app.Funcs {
		if bin.opts.StaticInstrument && v.FuncDef(f.Name) != int32(i) {
			panic("guide: VT function ids out of step with the compiled-in snippets")
		}
	}
	return bin.template.Clone()
}
