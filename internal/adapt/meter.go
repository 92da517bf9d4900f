package adapt

import (
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// Meter is the epoch arithmetic every controller host shares: a per-rank
// baseline of thread clocks and probe cost counters over a job, and what
// each rank ran since it. Hosts aggregate the per-rank deltas themselves.
type Meter struct {
	job  *guide.Job
	mach *machine.Config

	now  des.Time         // rank 0's clock at the baseline
	susp []des.Time       // each rank's tool-suspended time at the baseline
	cost [][]vt.ProbeCost // each rank's cost counters at the baseline
}

// NewMeter returns a meter over job with no baseline yet.
func NewMeter(job *guide.Job) *Meter {
	return &Meter{job: job, mach: job.Processes()[0].Config()}
}

// Next ends the current epoch and makes now the next one's baseline. It
// returns the useful cycles all ranks ran in the epoch (elapsed time less
// the time the tool held them suspended) and passes each rank's per-probe
// counter deltas to f, in (rank, function id) order; a delta carries the
// probe's current Active flag. The first call only takes the baseline,
// calls f for nothing and reports false.
func (m *Meter) Next(f func(rank int, d vt.ProbeCost)) (total int64, ok bool) {
	procs := m.job.Processes()
	ok = m.cost != nil
	if !ok {
		m.susp = make([]des.Time, len(procs))
		m.cost = make([][]vt.ProbeCost, len(procs))
	}
	now := procs[0].Threads()[0].Now()
	for i, pr := range procs {
		t := pr.Threads()[0]
		susp := t.SuspendedTime()
		snap := m.job.VT(i).CostSnapshot()
		if ok {
			elapsed := t.Now() - m.now
			total += m.mach.TimeToCycles(elapsed - min(susp-m.susp[i], elapsed))
			prev := m.cost[i]
			for id, d := range snap {
				if id < len(prev) {
					d.Hits -= prev[id].Hits
					d.Recorded -= prev[id].Recorded
					d.Cycles -= prev[id].Cycles
				}
				f(i, d)
			}
		}
		m.susp[i], m.cost[i] = susp, snap
	}
	m.now = now
	return total, ok
}
