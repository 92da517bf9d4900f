// Parallel experiments: drive exp.Runner programmatically — schedule the
// cell work-list of several figures on a worker pool over a custom
// machine preset, watch per-cell results stream by, reuse the memo cache
// for an ad-hoc spec, and read the run's metrics.
package main

import (
	"fmt"
	"log"
	"os"

	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/machine"
)

func main() {
	// A custom machine: start from a registered preset and override it
	// with functional options. The only rule is a unique Name, which
	// feeds every spec's cache key.
	mach := machine.MustNew("ibm-power3",
		machine.WithName("example 16x16 @ 1 GHz"),
		machine.WithNodes(16),
		machine.WithCPUsPerNode(16),
		machine.WithClockHz(1e9),
		machine.WithNetwork(machine.Network{
			Latency:      10 * des.Microsecond,
			SendOverhead: 2 * des.Microsecond,
			RecvOverhead: 2 * des.Microsecond,
			Bandwidth:    1e9,
			ShmLatency:   1 * des.Microsecond,
			ShmBandwidth: 4e9,
		}),
		machine.WithDaemonLatency(150*des.Microsecond),
		machine.WithDaemonJitter(0.35),
	)

	// One Runner owns the worker pool and the cross-figure memo cache.
	// OnCell streams every assembled cell in deterministic order, so the
	// same run always prints the same lines — regardless of Parallelism.
	runner := exp.NewRunner(exp.Options{
		Machine:     mach,
		MaxCPUs:     8, // trim the sweeps for a quick demo
		Parallelism: 4,
		OnCell: func(ev exp.CellEvent) {
			cached := " "
			if ev.CacheHit {
				cached = "*"
			}
			fmt.Printf("%s %-6s %-20s %3d CPUs  %.4fs\n",
				cached, ev.Figure, ev.Series, ev.CPUs, ev.Value)
		},
	})

	// The combined work-list of both figures is deduplicated by spec key
	// and drained through the pool; any cell shared between figures runs
	// exactly once (cache hits print a '*').
	figs, err := runner.Figures("fig7a", "fig9")
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println()
	for _, fig := range figs {
		if err := fig.Render(os.Stdout); err != nil {
			log.Fatal(err)
		}
		fmt.Println()
	}

	// Ad-hoc cells go through the same memo cache: this spec matches a
	// fig7a cell that already ran, so no new simulation happens.
	res, err := runner.Run(exp.RunSpec{
		App: "smg98", Policy: exp.Dynamic, CPUs: 8,
		Machine: mach, Seed: exp.DefaultSeed,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("smg98/Dynamic/8: elapsed %.4fs, create+instrument %.2fs, trace %d bytes\n",
		res.Elapsed.Seconds(), res.CreateAndInstrument.Seconds(), res.TraceBytes)

	m := runner.Metrics()
	fmt.Printf("\ncells=%d runs=%d replays=%d cache-hits=%d workers=%d wall=%s virtual=%.2fs utilization=%.0f%%\n",
		m.Cells, m.Runs, m.Replays, m.CacheHits, m.Workers, m.Wall.Round(1e6),
		m.Virtual.Seconds(), 100*m.Utilization())
}
