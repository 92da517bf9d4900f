// Command experiments regenerates every table and figure of the paper's
// evaluation from the simulation, printing the same rows/series the paper
// reports. Figures are scheduled as independent cells on a worker pool
// (exp.Runner); output is byte-identical at any parallelism.
//
//	experiments -all              # everything (sequentially: several minutes)
//	experiments -all -parallel 8  # same bytes, one cell per worker
//	experiments -fig7a -fig9      # selected figures
//	experiments -faults -adapt    # any registered figure by its ID (see -h)
//	experiments -table2 -table3   # tables only
//	experiments -fig7a -csv       # CSV output
//	experiments -fig7a -max-cpus 8  # truncate the CPU sweep
//	experiments -all -jsonl cells.jsonl -progress  # observable run
//	experiments -scale -shards 8 -spill-dir spill -scale-stats  # 1k-16k rank sweep on the sharded DES
//
// Sweeps are supervised: a cell that panics, livelocks past the -max-events/
// -max-virtual DES budget, or exceeds -cell-timeout of host time is retried
// up to -max-attempts times (panics fail fast) and otherwise reported as a
// structured failure while the rest of the sweep completes. With -cache-dir
// every finished cell is journaled crash-safely, and -resume serves finished
// cells from the journal, so a killed sweep picks up where it died:
//
//	experiments -all -cache-dir cache            # journal as it goes
//	experiments -all -cache-dir cache -resume    # after a crash/SIGKILL
//	experiments -all -cell-timeout 30s -max-attempts 3 -max-events 50000000
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"syscall"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/exp"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		all      = flag.Bool("all", false, "run every table and figure")
		table1   = flag.Bool("table1", false, "Table 1: dynprof commands")
		table2   = flag.Bool("table2", false, "Table 2: the ASCI kernel applications")
		table3   = flag.Bool("table3", false, "Table 3: the instrumentation policies")
		csv      = flag.Bool("csv", false, "emit CSV instead of aligned tables")
		maxCPUs  = flag.Int("max-cpus", 0, "truncate CPU sweeps (0 = the paper's full range)")
		seed     = flag.Uint64("seed", exp.DefaultSeed, "simulation seed")
		parallel = flag.Int("parallel", 0, "worker pool size for experiment cells (0 = GOMAXPROCS)")
		jsonl    = flag.String("jsonl", "", "write one JSON line per figure cell to this file")
		progress = flag.Bool("progress", false, "report cell progress and run metrics on stderr")

		shards         = flag.Int("shards", 0, "DES shard count for -scale cells (0 = "+fmt.Sprint(exp.DefaultScaleShards)+"); results are fixed per shard count")
		spillDir       = flag.String("spill-dir", "", "stream -scale trace stores to spill files under DIR, bounding resident memory")
		spillThreshold = flag.Int("spill-threshold", 0, "per-shard resident events before a spill (0 = "+fmt.Sprint(exp.DefaultSpillThreshold)+")")
		scaleStats     = flag.Bool("scale-stats", false, "report events/sec and peak RSS of the sweep on stderr")

		cacheDir    = flag.String("cache-dir", "", "journal finished cells to DIR/"+exp.StoreJournalName+" (crash-safe, fsynced)")
		resume      = flag.Bool("resume", false, "serve finished cells from the -cache-dir journal instead of re-executing them")
		cellTimeout = flag.Duration("cell-timeout", 0, "host wall-clock bound per cell attempt (0 = none)")
		maxAttempts = flag.Int("max-attempts", 1, "attempts per cell for retryable failures (livelock, timeout)")
		maxEvents   = flag.Uint64("max-events", 0, "DES budget: events per cell run before a livelock failure (0 = unlimited)")
		maxVirtual  = flag.Duration("max-virtual", 0, "DES budget: virtual time per cell run before a livelock failure (0 = unlimited)")

		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the sweep to this file")
		memProfile = flag.String("memprofile", "", "write an allocation profile at exit to this file")
		execTrace  = flag.String("trace", "", "write a runtime execution trace of the sweep to this file")
	)
	figures := exp.FigureFlags()
	requested := make([]*bool, len(figures))
	for i, f := range figures {
		requested[i] = flag.Bool(f.ID, false, f.Usage)
	}
	flag.Parse()

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}
	if *execTrace != "" {
		f, err := os.Create(*execTrace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := trace.Start(f); err != nil {
			return err
		}
		defer trace.Stop()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			return err
		}
		defer func() {
			runtime.GC() // flush recent frees so the profile shows live heap
			_ = pprof.WriteHeapProfile(f)
			f.Close()
		}()
	}

	opts := exp.Options{
		Seed:           *seed,
		SeedSet:        true,
		MaxCPUs:        *maxCPUs,
		Parallelism:    *parallel,
		CellTimeout:    *cellTimeout,
		MaxAttempts:    *maxAttempts,
		Budget:         des.Budget{MaxEvents: *maxEvents, MaxVirtual: des.Time(*maxVirtual / time.Nanosecond)},
		Shards:         *shards,
		SpillDir:       *spillDir,
		SpillThreshold: *spillThreshold,
	}
	if *resume && *cacheDir == "" {
		return fmt.Errorf("-resume requires -cache-dir")
	}
	if *cacheDir != "" {
		if !*resume {
			// A fresh sweep starts a fresh journal: stale results from an
			// earlier run must not be mistaken for this run's.
			if err := os.Remove(filepath.Join(*cacheDir, exp.StoreJournalName)); err != nil && !os.IsNotExist(err) {
				return err
			}
		}
		st, err := exp.OpenStore(*cacheDir)
		if err != nil {
			return err
		}
		defer st.Close()
		opts.Store = st
	}
	if *progress {
		opts.Progress = func(done, total, cacheHits int) {
			fmt.Fprintf(os.Stderr, "\rcells %d/%d (%d cached)", done, total, cacheHits)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}
	}
	var jw *bufio.Writer
	if *jsonl != "" {
		f, err := os.Create(*jsonl)
		if err != nil {
			return err
		}
		defer f.Close()
		jw = bufio.NewWriter(f)
		defer jw.Flush()
		enc := json.NewEncoder(jw)
		opts.OnCell = func(ev exp.CellEvent) { _ = enc.Encode(ev) }
	}
	var totalEvents uint64
	if *scaleStats {
		// Cell events are emitted serially during deterministic assembly,
		// so the chained accumulator needs no locking.
		prev := opts.OnCell
		opts.OnCell = func(ev exp.CellEvent) {
			totalEvents += ev.Events
			if prev != nil {
				prev(ev)
			}
		}
	}
	runner := exp.NewRunner(opts)

	out := os.Stdout
	any := false
	emitTable := func(f func(io.Writer) error) error {
		any = true
		if err := f(out); err != nil {
			return err
		}
		_, err := fmt.Fprintln(out)
		return err
	}

	for _, t := range []struct {
		on     bool
		render func(io.Writer) error
	}{{*table1, exp.RenderTable1}, {*table2, exp.RenderTable2}, {*table3, exp.RenderTable3}} {
		if *all || t.on {
			if err := emitTable(t.render); err != nil {
				return err
			}
		}
	}

	// Collect the requested figures, then schedule their combined cell
	// work-list through one Runner call so cells shared between figures
	// run exactly once.
	var ids []string
	for i, f := range figures {
		if *requested[i] || (*all && f.InAll) {
			ids = append(ids, f.ID)
		}
	}
	if len(ids) > 0 {
		any = true
		figs, err := runner.Figures(ids...)
		if err != nil {
			return err
		}
		for _, fig := range figs {
			if *csv {
				if err := fig.CSV(out); err != nil {
					return err
				}
				continue
			}
			if err := fig.Render(out); err != nil {
				return err
			}
			if _, err := fmt.Fprintln(out); err != nil {
				return err
			}
		}
		var failures int
		for _, fig := range figs {
			failures += len(fig.Failures)
		}
		if failures > 0 {
			fmt.Fprintf(os.Stderr, "experiments: %d cell(s) failed (NaN holes in the figures above):\n", failures)
			for _, fig := range figs {
				for _, cf := range fig.Failures {
					fmt.Fprintf(os.Stderr, "  %s %s/%d: %s after %d attempt(s): %s\n",
						cf.Figure, cf.Series, cf.CPUs, cf.Cause, cf.Attempts, cf.Error)
				}
			}
		}
		if *progress {
			m := runner.Metrics()
			fmt.Fprintf(os.Stderr,
				"cells=%d runs=%d cache-hits=%d store-hits=%d failures=%d retries=%d workers=%d wall=%s busy=%s virtual=%.1fs utilization=%.0f%%\n",
				m.Cells, m.Runs, m.CacheHits, m.StoreHits, m.Failures, m.Retries, m.Workers,
				m.Wall.Round(1e6), m.Busy.Round(1e6), m.Virtual.Seconds(), 100*m.Utilization())
		}
	}
	if *scaleStats {
		m := runner.Metrics()
		eps := 0.0
		if m.Wall > 0 {
			eps = float64(totalEvents) / m.Wall.Seconds()
		}
		fmt.Fprintf(os.Stderr, "scale-stats: events=%d wall=%s events_per_sec=%.0f peak_rss_kb=%d\n",
			totalEvents, m.Wall.Round(time.Millisecond), eps, peakRSSKB())
	}
	if !any {
		flag.Usage()
	}
	return nil
}

// peakRSSKB reports the process's peak resident set size in KiB (0 if the
// platform does not expose it).
func peakRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return int64(ru.Maxrss)
}
