// Ephemeral instrumentation (Traub et al., discussed in the paper's
// Section 2): statistical sampling finds where the program spends its
// time, then detailed instrumentation is activated dynamically for just
// those functions to take a performance snapshot — complete-profile
// accuracy where it matters, sampling overhead everywhere else.
package main

import (
	"fmt"
	"log"

	"dynprof/internal/apps"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

func main() {
	app, err := apps.Get("sppm")
	if err != nil {
		log.Fatal(err)
	}
	s := des.NewScheduler(3)
	var session *core.Session
	var hot []string
	s.Spawn("dynprof", func(p *des.Proc) {
		session, err = core.NewSession(p, core.Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     app,
			Procs:   4,
			Args:    map[string]int{"nx": 10, "ny": 10, "nz": 10, "steps": 500},
		})
		if err != nil {
			return
		}
		session.Start(p)
		// Sample at 1ms for 0.2s of virtual time, then hold detailed
		// probes on the two hottest functions for 0.5s.
		hot, err = session.EphemeralProfile(p,
			des.Millisecond, 200*des.Millisecond, 500*des.Millisecond, 2)
		if err != nil {
			return
		}
		session.Quit(p)
	})
	if runErr := s.Run(); runErr != nil {
		log.Fatal(runErr)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("sampling chose: %v\n", hot)
	col := session.Job().Collector()
	counts := map[string]int{}
	for _, ch := range col.Ordered().Chunks() {
		for _, e := range ch {
			if e.Kind == vt.Enter {
				counts[col.FuncName(e.Rank, e.ID)]++
			}
		}
	}
	for name, n := range counts {
		fmt.Printf("  snapshot: %-24s %6d enters\n", name, n)
	}
	fmt.Printf("run finished in %.2fs; no probes left behind: %v\n",
		session.Job().MainElapsed().Seconds(), len(session.Instrumented()) == 0)
}
