// Scripted instrumentation: the paper's wait-between-insert-and-remove
// pattern ("a wait that is placed between an insert and remove can be used
// to temporarily monitor a particular function or functions") — an
// ephemeral performance snapshot of sppm's Riemann solver taken while the
// application runs, then removed so the rest of the run is unperturbed.
package main

import (
	"fmt"
	"log"
	"strings"

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

	// start uninstrumented; after 0.2 virtual seconds, monitor the
	// Riemann solver and the EOS for 0.3 seconds; then remove the probes
	// so the rest of the run is unperturbed.
	script := `
start
wait 0.2
insert sppm_RiemannSolve sppm_EOS
wait 0.3
remove sppm_RiemannSolve sppm_EOS
quit
`
	s := des.NewScheduler(11)
	var session *core.Session
	s.Spawn("dynprof", func(p *des.Proc) {
		session, err = core.NewSession(p, core.Config{
			Machine: machine.MustNew("ibm-power3"),
			App:     app,
			Procs:   4,
			Args:    map[string]int{"nx": 10, "ny": 10, "nz": 10, "steps": 400},
		})
		if err != nil {
			return
		}
		err = session.RunScript(p, strings.NewReader(script))
	})
	if runErr := s.Run(); runErr != nil {
		log.Fatal(runErr)
	}
	if err != nil {
		log.Fatal(err)
	}

	col := session.Job().Collector()
	var first, last float64
	counts := map[string]int{}
	for _, ch := range col.Ordered().Chunks() {
		for _, e := range ch {
			if e.Kind != vt.Enter {
				continue
			}
			counts[col.FuncName(e.Rank, e.ID)]++
			at := e.At.Seconds()
			if first == 0 || at < first {
				first = at
			}
			if at > last {
				last = at
			}
		}
	}
	fmt.Printf("ephemeral snapshot covered virtual time %.2fs .. %.2fs (a %.2fs window)\n",
		first, last, last-first)
	for name, n := range counts {
		fmt.Printf("  %-24s %6d enters recorded\n", name, n)
	}
	fmt.Printf("total run: %.2fs; images pristine again: %v\n",
		session.Job().MainElapsed().Seconds(), len(session.Instrumented()) == 0)
}
