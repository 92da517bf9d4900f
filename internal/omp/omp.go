// Package omp implements a simulated OpenMP runtime in the style of the
// Guide runtime the paper's toolchain used: a persistent team of worker
// threads inside one process (sharing one image), fork-join parallel
// regions, static worksharing, team barriers and named critical sections,
// with guidetrace-style event hooks for the instrumentation library.
package omp

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/proc"
	"dynprof/internal/tape"
)

// Cost model (cycles) for runtime operations, sized for a late-90s SMP.
const (
	forkCycles     = 6_000
	joinCycles     = 2_500
	barrierCycles  = 1_200
	criticalCycles = 300
)

// Hooks is the guidetrace event interface: the Guidetrace library
// "implements OpenMP and also logs OpenMP performance events with
// Vampirtrace". A nil Hooks disables logging.
type Hooks interface {
	// RegionFork fires on the master as a parallel region opens.
	RegionFork(master *proc.Thread, region string)
	// RegionEnter fires on each team member as it starts the region body.
	RegionEnter(t *proc.Thread, region string, id int)
	// RegionExit fires on each team member as it leaves the region body.
	RegionExit(t *proc.Thread, region string, id int)
	// RegionJoin fires on the master after the join barrier.
	RegionJoin(master *proc.Thread, region string)
}

// Runtime is the per-process OpenMP runtime.
type Runtime struct {
	pr       *proc.Process
	n        int
	hooks    Hooks
	workers  []*worker
	join     *des.Barrier
	criticts map[string]*des.Semaphore
	region   string
	inRegion bool
	shutdown bool
}

// worker is one pooled team thread.
type worker struct {
	id    int
	t     *proc.Thread
	start *des.Gate
	fn    func(t *proc.Thread, id int)
}

// New creates a runtime with a team of n threads (including the master,
// which must be the process's main thread). Worker threads are spawned
// immediately and parked, as the Guide runtime does; call Shutdown when
// the application finishes so they exit.
func New(pr *proc.Process, master *proc.Thread, n int, hooks Hooks) *Runtime {
	if n < 1 {
		panic(fmt.Sprintf("omp: team of %d threads", n))
	}
	if master.ThreadID() != 0 {
		panic("omp: master must be thread 0")
	}
	rt := &Runtime{
		pr:       pr,
		n:        n,
		hooks:    hooks,
		join:     des.NewBarrier(pr.Name()+".join", n),
		criticts: make(map[string]*des.Semaphore),
	}
	for id := 1; id < n; id++ {
		w := &worker{id: id, start: des.NewGate(fmt.Sprintf("%s.w%d", pr.Name(), id), false)}
		rt.workers = append(rt.workers, w)
		w.t = pr.SpawnThread(func(t *proc.Thread) { rt.workerLoop(w, t) })
	}
	return rt
}

// NumThreads reports the team size.
func (rt *Runtime) NumThreads() int { return rt.n }

func (rt *Runtime) workerLoop(w *worker, t *proc.Thread) {
	for {
		// Idle workers are blocked, so a suspend can complete while the
		// team is between regions.
		t.Block(func(p *des.Proc) { p.Await(w.start) })
		w.start.Set(false)
		if rt.shutdown {
			return
		}
		if rt.hooks != nil {
			t.Mute()
			rt.hooks.RegionEnter(t, rt.region, w.id)
			t.Unmute()
		}
		w.fn(t, w.id)
		if tr := t.Tape(); tr != nil {
			tr.Append(tape.Op{Kind: tape.End})
		}
		if rt.hooks != nil {
			t.Mute()
			rt.hooks.RegionExit(t, rt.region, w.id)
			t.Unmute()
		}
		t.Block(func(p *des.Proc) { p.Arrive(rt.join) })
	}
}

// Parallel executes body on the whole team: the master (the calling
// thread) as id 0 and each pooled worker with its id. It returns after
// the join barrier, charging Guide fork/join costs on the master.
// Nested parallel regions are not supported (the paper's applications do
// not use them).
func (rt *Runtime) Parallel(master *proc.Thread, region string, body func(t *proc.Thread, id int)) {
	if rt.inRegion {
		panic("omp: nested parallel region")
	}
	if rt.shutdown {
		panic("omp: Parallel after Shutdown")
	}
	if master.ThreadID() != 0 {
		panic("omp: Parallel must be called from the master thread")
	}
	rt.inRegion = true
	rt.region = region
	// Only the body is the application's own work: the master's tape
	// records the region, the body and its End, but not fork and join.
	tr := master.Tape()
	if tr != nil {
		tr.Parallel(region)
	}
	master.Mute()
	master.Sync()
	if rt.hooks != nil {
		rt.hooks.RegionFork(master, region)
	}
	master.Work(forkCycles)
	master.Sync()
	for _, w := range rt.workers {
		w.fn = body
		w.start.Set(true)
	}
	if rt.hooks != nil {
		rt.hooks.RegionEnter(master, region, 0)
	}
	master.Unmute()
	body(master, 0)
	if tr != nil {
		tr.Append(tape.Op{Kind: tape.End})
	}
	master.Mute()
	if rt.hooks != nil {
		rt.hooks.RegionExit(master, region, 0)
	}
	master.Block(func(p *des.Proc) { p.Arrive(rt.join) })
	master.Work(joinCycles)
	if rt.hooks != nil {
		rt.hooks.RegionJoin(master, region)
	}
	master.Unmute()
	rt.inRegion = false
}

// TeamBarrier synchronises the whole team inside a parallel region.
func (rt *Runtime) TeamBarrier(t *proc.Thread) {
	if !rt.inRegion {
		panic("omp: TeamBarrier outside a parallel region")
	}
	if tr := t.Tape(); tr != nil {
		tr.Unsupported("omp TeamBarrier")
	}
	t.Work(barrierCycles)
	t.Block(func(p *des.Proc) { p.Arrive(rt.join) })
}

// Critical runs body under the named critical section's lock.
func (rt *Runtime) Critical(t *proc.Thread, name string, body func()) {
	if tr := t.Tape(); tr != nil {
		tr.Unsupported("omp Critical")
	}
	sem, ok := rt.criticts[name]
	if !ok {
		sem = des.NewSemaphore("critical."+name, 1)
		rt.criticts[name] = sem
	}
	t.Work(criticalCycles)
	t.Block(func(p *des.Proc) { p.Acquire(sem) })
	body()
	t.Sync()
	sem.Release()
}

// Shutdown retires the worker pool. Call once, after the last region.
func (rt *Runtime) Shutdown() {
	if rt.shutdown {
		return
	}
	rt.shutdown = true
	for _, w := range rt.workers {
		w.start.Set(true)
	}
}

// ForStatic computes thread id's half-open chunk [lo', hi') of the
// iteration space [lo, hi) under a static (block) schedule.
func ForStatic(lo, hi, id, nth int) (int, int) {
	if nth <= 0 {
		panic("omp: ForStatic with no threads")
	}
	n := hi - lo
	if n <= 0 {
		return lo, lo
	}
	per := n / nth
	rem := n % nth
	start := lo + id*per + min(id, rem)
	end := start + per
	if id < rem {
		end++
	}
	return start, end
}
