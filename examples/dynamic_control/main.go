// Dynamic control of instrumentation (Figure 2 / Section 5): the target is
// fully statically instrumented, a monitoring tool breaks at
// configuration_break inside VT_confsync, and reconfigures the
// instrumentation library at run time — first recording everything, then
// switching off all but the solver subset mid-run.
package main

import (
	"fmt"
	"log"

	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

func main() {
	// A small solver-shaped application whose iterations end at a
	// VT_confsync safe point (inserted by the user or compiler at points
	// where no messages are in flight).
	app := &guide.App{
		Name:  "controlled",
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: "solve_step", Size: 40}, {Name: "diagnose", Size: 20}},
		Main: func(c *guide.Ctx) {
			solveStep, diagnose := c.Fn("solve_step"), c.Fn("diagnose")
			c.MPI.Init()
			for i := 0; i < 6; i++ {
				c.Call(solveStep, func() { c.T.Work(3_000_000) })
				c.Call(diagnose, func() { c.T.Work(500_000) })
				// The safe point: no messages in flight here.
				c.VT.ConfSync(c.MPI, false, nil)
			}
			c.MPI.Finalize()
		},
	}

	mach := machine.MustNew("ibm-power3")
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true})
	if err != nil {
		log.Fatal(err)
	}
	s := des.NewScheduler(7)
	job, err := guide.Launch(s, mach, bin, guide.LaunchOpts{Procs: 4, Hold: true})
	if err != nil {
		log.Fatal(err)
	}

	sys := dpcl.NewSystem(s, mach)
	s.Spawn("vgv-monitor", func(p *des.Proc) {
		monitor := core.NewControlMonitor(p, sys, job)
		monitor.UserDelay = 50 * des.Millisecond // the human at the GUI
		job.Release()
		stop := 0
		monitor.Serve(p, func(hit dpcl.Event) []vt.Change {
			stop++
			fmt.Printf("monitor: stop %d at configuration_break (rank %d)\n", stop, hit.Rank)
			if stop == 2 {
				fmt.Println("monitor: deactivating everything but solve_step")
				return []vt.Change{
					{Pattern: "*", Active: false},
					{Pattern: "solve_step", Active: true},
				}
			}
			return nil
		})
	})
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}

	col := job.Collector()
	counts := map[string]int{}
	for _, ch := range col.Ordered().Chunks() {
		for _, e := range ch {
			if e.Kind == vt.Enter {
				counts[col.FuncName(e.Rank, e.ID)]++
			}
		}
	}
	fmt.Printf("\nrecorded enters: solve_step=%d diagnose=%d (diagnose stops after stop 2)\n",
		counts["solve_step"], counts["diagnose"])
	fmt.Printf("main computation: %.4fs (includes %d monitored stops)\n",
		job.MainElapsed().Seconds(), 6)
}
