package exp

import (
	"errors"
	"fmt"
	"sort"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// This file holds the harness's three launch paths. Every cell that runs
// a job goes through one of them, each on a fresh des.Scheduler that
// carries the cell's budget: launchCell for a plain instrumented launch,
// sessionCell for a job spawned and instrumented by dynprof, tenantCell
// for a population of tool sessions against one session server. Each
// releases the trace collectors of the jobs it ran before it returns.

// launchCell builds app under build, launches it on mach with opts and
// runs the job to completion; read sees the finished job before its
// collector is released.
func launchCell(seed uint64, bud des.Budget, mach *machine.Config, app *guide.App, build guide.BuildOpts,
	opts guide.LaunchOpts, read func(*guide.Job) error) error {
	bin, err := guide.Build(app, build)
	if err != nil {
		return err
	}
	s := des.NewScheduler(seed, des.WithBudget(bud))
	j, err := guide.Launch(s, mach, bin, opts)
	if err != nil {
		return err
	}
	defer j.Collector().Release()
	if err := runScheduler(s); err != nil {
		return err
	}
	return read(j)
}

// sessionCell runs one dynprof session: the dynprof Proc opens a session
// on cfg (cfg.Tape included) and runs body on it; read sees the finished
// session before its job's collector is released. It returns the
// session's fault stream. An aborted run (budget trip, proc panic) tears
// the session down host-side and returns the stream logged so far with
// the error, so the failure report carries it.
func sessionCell(seed uint64, bud des.Budget, cfg core.Config,
	body func(*des.Proc, *core.Session) error, read func(*core.Session)) ([]fault.Event, error) {
	s := des.NewScheduler(seed, des.WithBudget(bud))
	var ss *core.Session
	var sessErr error
	defer func() {
		if ss != nil && ss.Job() != nil {
			ss.Job().Collector().Release()
		}
	}()
	s.Spawn("dynprof", func(p *des.Proc) {
		if ss, sessErr = core.NewSession(p, cfg); sessErr == nil {
			sessErr = body(p, ss)
		}
	})
	if err := runScheduler(s); err != nil {
		if ss == nil {
			return nil, err
		}
		ss.Teardown()
		return ss.Faults(), err
	}
	if sessErr != nil {
		return nil, sessErr
	}
	read(ss)
	return ss.Faults(), nil
}

// traceBytes sums the trace volume of every library instance of j.
func traceBytes(j *guide.Job) int {
	n := 0
	for i := range j.Processes() {
		n += j.VT(i).TraceBytes()
	}
	return n
}

// tenantPop is a session population for tenantCell: resident jobs named
// job00, job01, ... of procs ranks each, and sessions users u00000,
// u00001, ... arriving evenly over tenantWindow, user i on job i mod jobs.
type tenantPop struct {
	kind                  string // the figure, for error messages
	jobs, procs, sessions int
}

// tenantLoad is what tenantCell measured.
type tenantLoad struct {
	sv *serve.Server
	// samples are the control-op latencies of the sessions that closed,
	// sorted; traceBytes their trace volume.
	samples    []des.Time
	traceBytes int64
	// elapsed is the virtual time the run ended at; events its DES event
	// count.
	elapsed des.Time
	events  uint64
}

// tenantCell runs pop against one session server on cfg. Each arriving
// session opens (a rejected one bows out) and runs body, which reports
// whether the session is to be counted: a counted session's latencies and
// trace volume are collected and it closes. The server shuts down after
// the last session returns; the first error wins.
func tenantCell(seed uint64, bud des.Budget, cfg serve.Config, pop tenantPop,
	body func(p *des.Proc, i int, sn *serve.Session) (bool, error)) (*tenantLoad, error) {
	s := des.NewScheduler(seed, des.WithBudget(bud))
	load := &tenantLoad{sv: serve.New(s, cfg)}
	jobNames := make([]string, pop.jobs)
	for i := range jobNames {
		jobNames[i] = fmt.Sprintf("job%02d", i)
		if _, err := load.sv.RegisterResident(jobNames[i], pop.procs, nil); err != nil {
			return nil, err
		}
	}
	defer func() {
		for _, name := range jobNames {
			if jb := load.sv.Job(name); jb != nil {
				jb.Guide().Collector().Release()
			}
		}
	}()

	var firstErr error
	remaining := pop.sessions
	for i := 0; i < pop.sessions; i++ {
		i := i
		user := fmt.Sprintf("u%05d", i)
		jobName := jobNames[i%len(jobNames)]
		s.Spawn(user, func(p *des.Proc) {
			defer func() {
				remaining--
				if remaining == 0 {
					load.sv.Shutdown()
				}
			}()
			p.Advance(des.Time(i) * tenantWindow / des.Time(pop.sessions))
			sn, err := load.sv.Open(p, user, jobName, nil)
			switch {
			case errors.Is(err, serve.ErrRejected):
				return
			case err != nil:
				err = fmt.Errorf("exp: %s open %s: %w", pop.kind, user, err)
			default:
				var counted bool
				if counted, err = body(p, i, sn); counted && err == nil {
					load.samples = append(load.samples, sn.Latencies()...)
					load.traceBytes += sn.TraceBytes()
					sn.Close(p)
				}
			}
			if firstErr == nil {
				firstErr = err
			}
		})
	}
	if err := runScheduler(s); err != nil {
		return nil, err
	}
	if firstErr != nil {
		return nil, firstErr
	}
	load.elapsed = s.Now()
	load.events = s.Executed()
	sort.Slice(load.samples, func(a, b int) bool { return load.samples[a] < load.samples[b] })
	return load, nil
}
