// Quickstart: spawn an ASCI kernel under dynprof, dynamically instrument
// its solver subset before the main computation, run it to completion, and
// print the resulting profile — the whole Figure 1 + Figure 6 pipeline in
// one program.
package main

import (
	"fmt"
	"log"
	"os"
	"strings"

	"dynprof/internal/apps"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/vgv"
)

func main() {
	app, err := apps.Get("smg98")
	if err != nil {
		log.Fatal(err)
	}

	// Everything runs on a simulated IBM Power3 cluster inside one
	// deterministic discrete-event scheduler.
	s := des.NewScheduler(1)
	var session *core.Session
	s.Spawn("dynprof", func(p *des.Proc) {
		// NewSession spawns the target held at its first instruction,
		// attaches DPCL daemons, and plants the MPI_Init callback.
		session, err = core.NewSession(p, core.Config{
			Machine:   machine.MustNew("ibm-power3"),
			App:       app,
			BuildOpts: guide.BuildOpts{TraceAPI: true},
			Procs:     4,
			Args:      map[string]int{"nx": 10, "ny": 10, "nz": 16, "iters": 3},
			Files:     map[string]string{"subset.txt": strings.Join(app.Subset, "\n")},
		})
		if err != nil {
			return
		}
		// The Table 1 command language: queue the inserts, start the
		// target (the inserts are applied while every rank spins at the
		// end of MPI_Init), and detach.
		err = session.RunScript(p, strings.NewReader(
			"insert-file subset.txt\nstart\nquit\n"))
	})
	if runErr := s.Run(); runErr != nil {
		log.Fatal(runErr)
	}
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("smg98 on 4 ranks: main computation %.4fs, create+instrument %.2fs\n\n",
		session.Job().MainElapsed().Seconds(),
		session.CreateAndInstrumentTime().Seconds())

	profile := vgv.Analyze(session.Job().Collector())
	if err := profile.WriteReport(os.Stdout, 12); err != nil {
		log.Fatal(err)
	}
}
