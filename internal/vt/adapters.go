package vt

import (
	"dynprof/internal/mpi"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
)

// MPIAdapter plugs a library instance into the MPI wrapper interface:
// "the Vampirtrace library collects MPI trace information by using the
// MPI wrapper interface".
type MPIAdapter struct {
	C *Ctx
}

var _ mpi.Hooks = (*MPIAdapter)(nil)

// Enter logs an APIEnter event for the wrapper call.
func (a *MPIAdapter) Enter(m *mpi.Ctx, call string) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t := m.Thread()
	t.Charge(apiLogCycles)
	a.C.record(t, APIEnter, a.C.FuncDef(call), 0, 0)
}

// Exit logs an APIExit event for the wrapper call.
func (a *MPIAdapter) Exit(m *mpi.Ctx, call string) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t := m.Thread()
	t.Charge(apiLogCycles)
	a.C.record(t, APIExit, a.C.FuncDef(call), 0, 0)
}

// MsgSend logs an outgoing message event (peer and byte count).
func (a *MPIAdapter) MsgSend(m *mpi.Ctx, dst, tag, bytes int) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t := m.Thread()
	t.Charge(apiLogCycles)
	a.C.record(t, MsgSend, int32(tag), int64(dst), int64(bytes))
}

// MsgRecv logs a completed receive event.
func (a *MPIAdapter) MsgRecv(m *mpi.Ctx, src, tag, bytes int) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t := m.Thread()
	t.Charge(apiLogCycles)
	a.C.record(t, MsgRecv, int32(tag), int64(src), int64(bytes))
}

// Initialized initialises the library inside MPI_Init, where Vampirtrace
// sets up its own data structures, and resolves the ConfSync gates once.
func (a *MPIAdapter) Initialized(m *mpi.Ctx) {
	a.C.Initialize(m.Thread())
	img := m.Thread().Process().Image()
	a.C.syncSym, _ = img.Lookup("VT_confsync")
	a.C.breakSym, _ = img.Lookup(BreakpointSymbol)
}

// Finalizing flushes the rank's buffers inside MPI_Finalize.
func (a *MPIAdapter) Finalizing(m *mpi.Ctx) { a.C.Flush() }

// OMPAdapter plugs a library instance into the Guidetrace hooks: "the
// Guidetrace library implements OpenMP and also logs OpenMP performance
// events with Vampirtrace".
type OMPAdapter struct {
	C *Ctx
}

var _ omp.Hooks = (*OMPAdapter)(nil)

func (a *OMPAdapter) regionID(name string) int32 { return a.C.FuncDef("$omp$" + name) }

// RegionFork logs the region fork on the master thread.
func (a *OMPAdapter) RegionFork(master *proc.Thread, region string) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	master.Charge(apiLogCycles)
	a.C.record(master, RegionFork, a.regionID(region), 0, 0)
}

// RegionEnter logs a team member entering the region body.
func (a *OMPAdapter) RegionEnter(t *proc.Thread, region string, id int) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t.Charge(apiLogCycles)
	a.C.record(t, RegionEnter, a.regionID(region), int64(id), 0)
}

// RegionExit logs a team member leaving the region body.
func (a *OMPAdapter) RegionExit(t *proc.Thread, region string, id int) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	t.Charge(apiLogCycles)
	a.C.record(t, RegionExit, a.regionID(region), int64(id), 0)
}

// RegionJoin logs the join on the master thread.
func (a *OMPAdapter) RegionJoin(master *proc.Thread, region string) {
	if !a.C.ready || !a.C.traceAPI {
		return
	}
	master.Charge(apiLogCycles)
	a.C.record(master, RegionJoin, a.regionID(region), 0, 0)
}
