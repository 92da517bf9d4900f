// Package guide models the paper's build toolchain: "a user's application
// is first compiled by the Guide compiler", which inserts subroutine
// entry/exit profile instrumentation, transforms OpenMP directives into
// thread-based code linked with the Guidetrace library, and links the
// Vampirtrace library whose MPI wrapper interface collects message
// events. It also provides the POE-like launcher that places a compiled
// binary's processes onto the simulated machine.
package guide

import (
	"fmt"
	"slices"

	"dynprof/internal/image"
	"dynprof/internal/mpi"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
	"dynprof/internal/vt"
)

// Lang is an application's type/language combination (Table 2).
type Lang int

// Application kinds.
const (
	// MPIC is an MPI application written in C (Smg98).
	MPIC Lang = iota
	// MPIF77 is an MPI application written in Fortran 77 (Sppm, Sweep3d).
	MPIF77
	// OMPF77 is an OpenMP application written in Fortran 77 (Umt98).
	OMPF77
)

// IsMPI reports whether the language implies an MPI process model.
func (l Lang) IsMPI() bool { return l == MPIC || l == MPIF77 }

// String names the language as Table 2 does.
func (l Lang) String() string {
	switch l {
	case MPIC:
		return "MPI/C"
	case MPIF77:
		return "MPI/F77"
	case OMPF77:
		return "OMP/F77"
	default:
		return "?"
	}
}

// Func declares one application function for the compiler.
type Func struct {
	// Name is the function's linkage name.
	Name string
	// Size is the body size in image words (address-space extent).
	Size int
	// Exits is the number of return points; 0 means 1.
	Exits int
}

// Fn is a handle on one of an application's functions: its index in
// App.Funcs. Code resolves a handle once — a kernel where it declares its
// FuncTable, other code through Ctx.Fn — so the call gate does no name
// lookup per call.
type Fn int

// FuncTable builds an application's function table and hands out one
// handle per function, the way package flag defines flags:
//
//	var funcs guide.FuncTable
//	var fSolve = funcs.Add("app_Solve", 40)
type FuncTable struct{ funcs []Func }

// Add appends a one-exit function whose body is size words long and
// returns its handle.
func (t *FuncTable) Add(name string, size int) Fn {
	t.funcs = append(t.funcs, Func{Name: name, Size: size})
	return Fn(len(t.funcs) - 1)
}

// Funcs returns a copy of the table, for App.Funcs.
func (t *FuncTable) Funcs() []Func { return slices.Clone(t.funcs) }

// Ctx is the per-process application context the compiled main receives:
// the executing thread, the runtime the binary was linked against, and the
// process's instrumentation library instance.
type Ctx struct {
	// T is the executing (main) thread.
	T *proc.Thread
	// MPI is the rank's MPI handle; nil for OpenMP applications.
	MPI *mpi.Ctx
	// OMP is the OpenMP runtime; nil for MPI applications.
	OMP *omp.Runtime
	// VT is the process's instrumentation library instance.
	VT *vt.Ctx
	// Args carries the application input deck (problem size etc.).
	Args map[string]int

	syms []*image.Symbol // by Fn: the symbol of each App.Funcs entry
}

// Call traverses the call gate for a compiled function: probes patched or
// compiled into f's entry/exit fire around body.
func (c *Ctx) Call(f Fn, body func()) { c.T.Call(c.syms[f], body) }

// Sym returns f's symbol, for a gate a team thread traverses itself.
func (c *Ctx) Sym(f Fn) *image.Symbol { return c.syms[f] }

// Fn resolves a function name to its handle. It scans the function
// table, so resolve once, not per call; it panics on a name the
// application does not declare.
func (c *Ctx) Fn(name string) Fn {
	for i, s := range c.syms {
		if s.Name == name {
			return Fn(i)
		}
	}
	panic(fmt.Sprintf("guide: application declares no function %q", name))
}

// Arg fetches an input-deck parameter with a default.
func (c *Ctx) Arg(name string, def int) int {
	if v, ok := c.Args[name]; ok {
		return v
	}
	return def
}

// App is an application source tree handed to the compiler.
type App struct {
	// Name identifies the application (e.g. "smg98").
	Name string
	// Lang is the type/language combination.
	Lang Lang
	// Funcs is the function table; instrument-all policies instrument
	// every entry here.
	Funcs []Func
	// Subset lists the "important" functions used by the Subset and
	// Dynamic policies.
	Subset []string
	// Main is the program entry, run per rank (MPI) or once on the
	// master thread (OpenMP).
	Main func(c *Ctx)
	// DefaultArgs is the default input deck.
	DefaultArgs map[string]int
	// SyncPoint names a function every rank (or the OpenMP master
	// thread) reaches once per outer iteration with no messages in
	// flight — a safe place to dynamically insert a VT_confsync point.
	// Empty means the application declares no such point.
	SyncPoint string
}
