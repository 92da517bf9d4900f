package core

import (
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/proc"
	"dynprof/internal/vt"
)

// ControlMonitor is the monitoring-tool side of dynamic control of
// instrumentation (Figure 2): it sets a breakpoint on configuration_break
// (the no-op function VT_confsync calls on rank 0), and when the target
// halts there, it alters what the instrumentation library collects and
// resumes execution.
type ControlMonitor struct {
	sys *dpcl.System
	cl  *dpcl.Client
	job *guide.Job

	// UserDelay models the human in the loop: "the update time will be
	// limited by user interactions". Zero means scripted reconfiguration.
	UserDelay des.Time

	hits int
}

// NewControlMonitor attaches a monitor to the job and arms the breakpoint.
func NewControlMonitor(p *des.Proc, sys *dpcl.System, job *guide.Job) *ControlMonitor {
	m := &ControlMonitor{sys: sys, job: job}
	m.cl = sys.Connect("vgv-monitor")
	m.cl.Attach(p, job.Processes())
	m.cl.WatchBreakpoints(job.Processes(), vt.BreakpointSymbol)
	return m
}

// Hits reports how many breakpoint stops the monitor has serviced.
func (m *ControlMonitor) Hits() int { return m.hits }

// Serve services breakpoint stops until the target finishes: at each
// configuration_break stop it stages the changes decide returns (nil for
// none) on rank 0's library instance and resumes the target. Serve must
// run on its own simulation process; it returns when the job completes.
func (m *ControlMonitor) Serve(p *des.Proc, decide func(hit dpcl.Event) []vt.Change) {
	watcher := p.Scheduler().Spawn("monitor-watch", func(wp *des.Proc) {
		m.job.WaitAll(wp)
		// Unblock the monitor if it is waiting for a stop that will
		// never come.
		m.cl.Events().Put(dpcl.Event{Kind: "job-done"})
	})
	watcher.SetDaemon(true)
	for {
		ev := p.Recv(m.cl.Events()).(dpcl.Event)
		if ev.Kind == "job-done" {
			return
		}
		if ev.Kind != "breakpoint" {
			continue
		}
		m.hits++
		if m.UserDelay > 0 {
			p.Advance(m.UserDelay)
		}
		if chs := decide(ev); len(chs) > 0 {
			m.job.VT(0).QueueChanges(chs)
		}
		m.cl.Resume(p, m.job.Processes())
	}
}

// InsertConfSyncAt implements the hybrid approach sketched in Section 5.1:
// dynprof dynamically inserts a VT_confsync call at a safe point (the
// entry of fn, which the application must reach collectively with no
// messages in flight). The paper inserts these "possibly even dynamically
// at program startup" — and startup is the only moment every rank is
// provably aligned (spinning at the MPI_Init exit), so the request must be
// made before the start command; it is installed during the deferred
// instrumentation phase. Changes staged on rank 0 (via QueueChanges or a
// ControlMonitor) are distributed at the next crossing.
//
// On a pure-OpenMP target the inserted point degrades to vt.LocalSync: the
// same breakpoint/drain/apply epoch on the process's single library
// instance, with no distribution step.
func (ss *Session) InsertConfSyncAt(p *des.Proc, fn string) error {
	if ss.ready {
		return fmt.Errorf("dynprof: confsync points must be inserted at program startup, before start")
	}
	ss.pendingConf = append(ss.pendingConf, fn)
	return nil
}

// installConfSyncAt patches the queued hybrid safe point into every rank
// while the target is quiescent.
func (ss *Session) installConfSyncAt(p *des.Proc, fn string) error {
	isMPI := ss.bin.App().Lang.IsMPI()
	probe, err := ss.cl.InstallProbe(p, ss.job.Processes(), fn, image.EntryPoint, 0,
		func(pr *proc.Process) image.Snippet {
			rank := pr.Rank()
			v := ss.job.VT(rank)
			if !isMPI {
				return func(ec image.ExecCtx) {
					// Only the master thread drives the epoch; worker
					// threads crossing the same point pass through.
					if ec.ThreadID() == 0 {
						v.LocalSync(ec.(vt.SyncPoint))
					}
				}
			}
			return func(ec image.ExecCtx) {
				v.ConfSync(ss.job.World().Rank(rank), false, nil)
			}
		})
	if err != nil {
		return err
	}
	if err := ss.cl.Activate(p, probe); err != nil {
		return err
	}
	ss.installed["$confsync@"+fn] = []*dpcl.Probe{probe}
	return nil
}
