// Resumable sweep: run the fault-injection figure with a persistent
// result store, "crash", and resume — finished cells are served from the
// journal and the resumed output is byte-identical. Then rerun the same
// figure under a starvation budget to show per-cell failure reporting:
// failed cells leave NaN holes and typed CellFailure records instead of
// aborting the sweep.
package main

import (
	"bytes"
	"fmt"
	"log"
	"os"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/exp"
)

func main() {
	dir, err := os.MkdirTemp("", "resumable-sweep-")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)

	// --- Pass 1: a journaled sweep. Every finished cell is appended
	// (fsynced) to dir/results.jsonl keyed by its canonical spec key.
	st, err := exp.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	first := renderFaults(exp.Options{Parallelism: 4, Store: st})
	fmt.Printf("pass 1 journaled %d cells to %s/%s\n\n", st.Len(), dir, exp.StoreJournalName)

	// --- "Crash". A real crash (SIGKILL, power loss) can at worst tear
	// the journal's final record; reload tolerates exactly that.
	st.Close()

	// --- Pass 2: resume. A fresh Runner over a reopened store serves
	// every finished cell from the journal — zero re-execution — and
	// assembles byte-identical output, because spec keys (not completion
	// order) define cell identity.
	st, err = exp.OpenStore(dir)
	if err != nil {
		log.Fatal(err)
	}
	defer st.Close()
	resumed := exp.NewRunner(exp.Options{Parallelism: 4, Store: st})
	fig, err := resumed.Figure("faults")
	if err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	if err := fig.Render(&b); err != nil {
		log.Fatal(err)
	}
	m := resumed.Metrics()
	fmt.Printf("pass 2 (resumed): runs=%d store-hits=%d byte-identical=%t\n\n",
		m.Runs, m.StoreHits, b.String() == first)

	// --- Pass 3: failure reporting. The same figure under a starvation
	// DES budget (and a host watchdog, for completeness): every cell
	// livelocks, is retried once, and lands as a typed CellFailure with
	// a NaN hole — the sweep still completes and renders.
	failing := exp.NewRunner(exp.Options{
		Parallelism: 4,
		Budget:      des.Budget{MaxEvents: 2_000},
		CellTimeout: 10 * time.Second,
		MaxAttempts: 2,
		OnCell: func(ev exp.CellEvent) {
			if ev.Failed {
				fmt.Printf("  cell %-16s %3d%%  FAILED (%s, %d attempts)\n",
					ev.Series, ev.CPUs, ev.Cause, ev.Attempts)
			}
		},
	})
	fmt.Println("pass 3 (starvation budget, 2000 events/cell):")
	starved, err := failing.Figure("faults")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println()
	if err := starved.Render(os.Stdout); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\n%d failures, first diagnosis:\n  %s\n",
		len(starved.Failures), starved.Failures[0].Error)
}

// renderFaults runs the faults figure through a fresh Runner and returns
// its rendering.
func renderFaults(opts exp.Options) string {
	r := exp.NewRunner(opts)
	fig, err := r.Figure("faults")
	if err != nil {
		log.Fatal(err)
	}
	var b bytes.Buffer
	if err := fig.Render(&b); err != nil {
		log.Fatal(err)
	}
	os.Stdout.WriteString(b.String())
	fmt.Println()
	return b.String()
}
