package adapt

import (
	"fmt"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// Runtime is an attached controller instance: the glue between the pure
// Controller and a live session. It dynamically inserts a VT_confsync
// point at the application's declared sync point, then services each epoch
// crossing from the configuration_break breakpoint — measuring per-probe
// cost deltas across all ranks, stepping the controller, and staging the
// resulting changes for distribution at that same crossing.
type Runtime struct {
	ctl    *Controller
	job    *guide.Job
	mach   *machine.Config
	stride int // sync crossings per controller epoch

	crossings int // crossings since the last epoch boundary

	// The epoch baseline, per rank: rank 0's clock, each rank's
	// tool-suspended time and probe cost counters (nil before the first).
	now  des.Time
	susp []des.Time
	cost [][]vt.ProbeCost

	// Cumulative accounting over measured epochs, for Summary.
	overheads   []float64
	totalCycles int64
	floorCycles int64
	hits        int64
	recorded    int64
	deactivated int
	reactivated int
}

// Attach arms adaptive instrumentation on a session before start: it
// inserts the sync point declared by the application (guide.App.SyncPoint)
// and spawns a monitor process that runs the controller at every crossing
// until the job finishes. The session must not have started yet.
func Attach(p *des.Proc, ss *core.Session, cfg Config) (*Runtime, error) {
	app := ss.Job().Binary().App()
	if app.SyncPoint == "" {
		return nil, fmt.Errorf("adapt: %s declares no sync point", app.Name)
	}
	if err := ss.InsertConfSyncAt(p, app.SyncPoint); err != nil {
		return nil, err
	}
	job := ss.Job()
	rt := &Runtime{
		ctl:    NewController(cfg),
		job:    job,
		mach:   job.Processes()[0].Config(),
		stride: cfg.epochEvery(),
		// The first crossing ends an epoch at once: it takes the baseline.
		crossings: cfg.epochEvery() - 1,
	}
	m := core.NewControlMonitor(p, ss.System(), job)
	p.Scheduler().Spawn("adapt-monitor", func(mp *des.Proc) {
		m.Serve(mp, rt.decide)
	})
	return rt, nil
}

// decide services one epoch crossing. The first crossing only captures the
// baseline (startup and instrumentation-phase cycles would otherwise
// pollute the first measurement); every stride-th crossing after it
// measures the epoch since the previous one, steps the controller, and
// returns the changes to stage.
func (rt *Runtime) decide(dpcl.Event) []vt.Change {
	if rt.crossings++; rt.crossings < rt.stride {
		return nil
	}
	rt.crossings = 0
	e, ok := rt.measure()
	if !ok {
		return nil
	}
	d := rt.ctl.Step(e)
	rt.overheads = append(rt.overheads, rt.ctl.LastOverhead())
	if d.Empty() {
		return nil
	}
	chs := make([]vt.Change, 0, len(d.Deactivate)+len(d.Reactivate))
	for _, name := range d.Deactivate {
		chs = append(chs, vt.Change{Pattern: name, Active: false})
	}
	for _, name := range d.Reactivate {
		chs = append(chs, vt.Change{Pattern: name, Active: true})
	}
	rt.deactivated += len(d.Deactivate)
	rt.reactivated += len(d.Reactivate)
	return chs
}

// measure ends an epoch, makes now the next one's baseline and aggregates
// the epoch's per-rank probe counter deltas into one Epoch: every probe, in
// order of first appearance across (rank, function id), Active as rank 0
// sees it. Its Total is the useful cycles all ranks ran: elapsed time less
// the time the tool held them suspended. It reports false for the first
// epoch, which only takes the baseline.
func (rt *Runtime) measure() (Epoch, bool) {
	procs := rt.job.Processes()
	ok := rt.cost != nil
	if !ok {
		rt.susp = make([]des.Time, len(procs))
		rt.cost = make([][]vt.ProbeCost, len(procs))
	}
	var order []string
	agg := make(map[string]*Probe)
	var total int64
	now := procs[0].Threads()[0].Now()
	for rank, pr := range procs {
		t := pr.Threads()[0]
		susp := t.SuspendedTime()
		snap := rt.job.VT(rank).CostSnapshot()
		if ok {
			elapsed := t.Now() - rt.now
			total += rt.mach.TimeToCycles(elapsed - min(susp-rt.susp[rank], elapsed))
			prev := rt.cost[rank]
			for id, d := range snap {
				if id < len(prev) {
					d.Hits -= prev[id].Hits
					d.Recorded -= prev[id].Recorded
					d.Cycles -= prev[id].Cycles
				}
				p, seen := agg[d.Name]
				if !seen {
					p = &Probe{Name: d.Name}
					agg[d.Name] = p
					order = append(order, d.Name)
				}
				if rank == 0 {
					p.Active = d.Active
				}
				p.Hits += d.Hits
				p.Cycles += d.RemovableCycles()
				rt.hits += d.Hits
				rt.recorded += d.Recorded
				rt.floorCycles += d.FloorCycles()
			}
		}
		rt.susp[rank], rt.cost[rank] = susp, snap
	}
	rt.now = now
	if !ok {
		return Epoch{}, false
	}
	rt.totalCycles += total
	e := Epoch{Total: total, Probes: make([]Probe, 0, len(order))}
	for _, name := range order {
		e.Probes = append(e.Probes, *agg[name])
	}
	return e, true
}

// Summary reports the controller's outcome over the measured epochs.
type Summary struct {
	// Epochs is how many epochs were measured and stepped.
	Epochs int
	// Achieved is the converged removable-overhead fraction: the mean of
	// the final three measured epochs.
	Achieved float64
	// LastOverhead is the final epoch's removable-overhead fraction.
	LastOverhead float64
	// Retained is the fraction of probe firings whose events were
	// actually recorded over the measured epochs: Recorded / Hits.
	Retained float64
	// Hits / Recorded are the underlying counts over measured epochs.
	Hits     int64
	Recorded int64
	// Floor is the unavoidable lookup-cost fraction over the measured
	// epochs; deactivation cannot reclaim it.
	Floor float64
	// ActiveProbes / TotalProbes describe the final activation table on
	// rank 0.
	ActiveProbes int
	TotalProbes  int
	// Deactivated / Reactivated count controller actions applied.
	Deactivated int
	Reactivated int
}

// Summary computes the run's outcome; call it after the job has finished.
func (rt *Runtime) Summary() Summary {
	s := Summary{
		Epochs:       rt.ctl.Epochs(),
		LastOverhead: rt.ctl.LastOverhead(),
		Hits:         rt.hits,
		Recorded:     rt.recorded,
		Deactivated:  rt.deactivated,
		Reactivated:  rt.reactivated,
	}
	if n := len(rt.overheads); n > 0 {
		tail := rt.overheads[max(0, n-3):]
		for _, v := range tail {
			s.Achieved += v
		}
		s.Achieved /= float64(len(tail))
	}
	if rt.hits > 0 {
		s.Retained = float64(rt.recorded) / float64(rt.hits)
	}
	if rt.totalCycles > 0 {
		s.Floor = float64(rt.floorCycles) / float64(rt.totalCycles)
	}
	for _, pc := range rt.job.VT(0).CostSnapshot() {
		s.TotalProbes++
		if pc.Active {
			s.ActiveProbes++
		}
	}
	return s
}
