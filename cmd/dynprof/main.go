// Command dynprof is the prototype dynamic instrumenter, with the paper's
// invocation shape:
//
//	dynprof [flags] <stdin> <stdout> <timefile> <target> [key=val ...]
//
// The first three parameters specify the command script ("-" for the
// process's stdin), the tool output ("-" for stdout), and the file to
// store the internal timings collected during instrumentation. The target
// is one of the ASCI kernel applications (smg98, sppm, sweep3d, umt98),
// followed by its input-deck parameters. The flags stand in for the poe
// parameters of the original tool.
//
// Example:
//
//	echo 'insert-file subset.txt
//	start
//	quit' | dynprof -procs 8 - - timings.txt smg98 nx=12 iters=4
package main

import (
	"bytes"
	"flag"
	"fmt"
	"io"
	"net"
	"os"
	"strconv"
	"strings"
	"time"

	"dynprof/internal/adapt"
	"dynprof/internal/apps"
	"dynprof/internal/core"
	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
	"dynprof/internal/vgv"
	"dynprof/internal/vt"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "dynprof:", err)
		os.Exit(1)
	}
}

func run() error {
	procs := flag.Int("procs", 4, "MPI ranks (or OpenMP threads for umt98)")
	machName := flag.String("machine", "ibm", "machine preset: ibm or ia32")
	seed := flag.Uint64("seed", 2003, "simulation seed")
	trace := flag.String("trace", "", "write the run's trace to this file")
	report := flag.Bool("report", false, "print a postmortem profile after the run")
	budget := flag.Float64("budget", 0, "adaptive perturbation budget as a fraction (e.g. 0.05); 0 disables the controller")
	epoch := flag.Int("epoch", 1, "adaptive mode: sync-point crossings per controller epoch")
	serveAddr := flag.String("serve", "", "run the multi-tenant session server on ADDR (host:port); positional args name the resident jobs")
	maxSessions := flag.Int("max-sessions", 64, "serve mode: concurrently admitted sessions")
	maxQueue := flag.Int("max-queue", -1, "serve mode: admission queue bound (<0 unbounded, 0 reject when full)")
	maxProbes := flag.Int("max-probes", 0, "serve mode: per-session probe quota (0 = unlimited)")
	maxTrace := flag.Int64("max-trace-bytes", 0, "serve mode: per-session trace-byte quota (0 = unlimited)")
	maxOps := flag.Float64("max-ops-per-sec", 0, "serve mode: per-session control-op rate quota in virtual time (0 = unlimited)")
	lease := flag.Duration("lease", 0, "serve mode: session lease; a dropped client link suspends its session for this grace window (renewed by heartbeats) instead of evicting it (0 = no leases)")
	daemonMTBF := flag.Duration("daemon-mtbf", 0, "inject a communication-daemon crash on every node at each multiple of this virtual-time interval (0 = fault-free)")
	daemonRestart := flag.Duration("daemon-restart", 0, "downtime before a crashed daemon respawns (0 = built-in default)")
	daemonCrashes := flag.Int("daemon-crashes", 1, "crash waves injected per node when -daemon-mtbf is set")
	flag.Parse()
	args := flag.Args()
	if *serveAddr != "" {
		mach, err := machine.New(*machName)
		if err != nil {
			return err
		}
		if plan := crashPlan(mach.Nodes, *daemonMTBF, *daemonRestart, *daemonCrashes); plan != nil {
			mach = mach.WithFaultPlan(plan)
		}
		ln, err := net.Listen("tcp", *serveAddr)
		if err != nil {
			return err
		}
		return serveJobs(ln, serve.Config{
			Machine:     mach,
			MaxSessions: *maxSessions,
			MaxQueue:    *maxQueue,
			Lease:       des.Time(*lease),
			DefaultQuota: serve.Quota{
				MaxProbes:     *maxProbes,
				MaxTraceBytes: *maxTrace,
				MaxCtrlPerSec: *maxOps,
			},
			Output: os.Stdout,
		}, *seed, *procs, args)
	}
	if len(args) < 4 {
		return fmt.Errorf("usage: dynprof [flags] <stdin> <stdout> <timefile> <target> [key=val ...]")
	}
	scriptPath, outPath, timefilePath, target := args[0], args[1], args[2], args[3]

	app, err := apps.Get(target)
	if err != nil {
		return err
	}
	mach, err := machine.New(*machName)
	if err != nil {
		return err
	}
	crashes := crashPlan(mach.Nodes, *daemonMTBF, *daemonRestart, *daemonCrashes)
	if crashes != nil {
		mach = mach.WithFaultPlan(crashes)
	}
	deck, err := parseDeck(args[4:])
	if err != nil {
		return err
	}

	var script []byte
	if scriptPath == "-" {
		script, err = io.ReadAll(os.Stdin)
	} else {
		script, err = os.ReadFile(scriptPath)
	}
	if err != nil {
		return err
	}

	out := io.Writer(os.Stdout)
	if outPath != "-" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		defer f.Close()
		out = f
	}

	files, err := loadScriptFiles(string(script))
	if err != nil {
		return err
	}

	s := des.NewScheduler(*seed)
	var ss *core.Session
	var rt *adapt.Runtime
	var sessErr error
	s.Spawn("dynprof", func(p *des.Proc) {
		ss, sessErr = core.NewSession(p, core.Config{
			Machine:   mach,
			App:       app,
			BuildOpts: guide.BuildOpts{TraceAPI: true},
			Procs:     *procs,
			Args:      deck,
			Output:    out,
			Files:     files,
		})
		if sessErr != nil {
			return
		}
		if *budget > 0 {
			// Arm the feedback controller before the script's start command
			// launches the target: it rides the application's declared sync
			// point and sheds the worst cost/benefit probes each epoch.
			rt, sessErr = adapt.Attach(p, ss, adapt.Config{Budget: *budget, EpochEvery: *epoch})
			if sessErr != nil {
				return
			}
		}
		sessErr = ss.RunScript(p, bytes.NewReader(script))
	})
	if err := s.Run(); err != nil {
		return err
	}
	if sessErr != nil {
		return sessErr
	}

	tf, err := os.Create(timefilePath)
	if err != nil {
		return err
	}
	defer tf.Close()
	if err := ss.Timefile().Write(tf); err != nil {
		return err
	}

	fmt.Fprintf(out, "dynprof: target finished; main computation %.4fs; create+instrument %.4fs\n",
		ss.Job().MainElapsed().Seconds(), ss.CreateAndInstrumentTime().Seconds())
	if crashes != nil {
		var crashed, restarted, replayed int
		for _, ev := range ss.Faults() {
			switch ev.Kind {
			case fault.KindDaemonCrash:
				crashed++
			case fault.KindDaemonRestart:
				restarted++
			case fault.KindLedgerReplay:
				replayed++
			}
		}
		fmt.Fprintf(out, "dynprof: recovery: %d daemon crashes, %d restarts, %d ledger replays, %d reconvergences\n",
			crashed, restarted, replayed, ss.Recoveries())
	}

	if rt != nil {
		sum := rt.Summary()
		fmt.Fprintf(out, "dynprof: adapt budget %.3g: %d epochs, achieved overhead %.4f (floor %.4f), retained %.3f of events, %d/%d probes active, %d deactivated, %d reactivated\n",
			*budget, sum.Epochs, sum.Achieved, sum.Floor, sum.Retained,
			sum.ActiveProbes, sum.TotalProbes, sum.Deactivated, sum.Reactivated)
	}

	if *trace != "" {
		printCompactSummary(out, ss.Job().Collector().CompactStats())
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := ss.Job().Collector().WriteTrace(f); err != nil {
			return err
		}
	}
	if *report {
		p := vgv.Analyze(ss.Job().Collector())
		if err := p.WriteReport(out, 20); err != nil {
			return err
		}
	}
	return nil
}

// serveJobs runs the multi-tenant session server: one synthetic resident
// job per name, each on its own node range, serving the line protocol on
// ln until a client issues shutdown. At shutdown it reports the jobs'
// combined trace compact-encoding counters.
func serveJobs(ln net.Listener, cfg serve.Config, seed uint64, procs int, jobs []string) error {
	defer ln.Close()
	if len(jobs) == 0 {
		return fmt.Errorf("usage: dynprof -serve ADDR [flags] <job> [job ...]")
	}
	s := des.NewScheduler(seed)
	sv := serve.New(s, cfg)
	for _, name := range jobs {
		if _, err := sv.RegisterResident(name, procs, nil); err != nil {
			return err
		}
	}
	fmt.Fprintf(os.Stderr, "dynprof: serving %s (jobs: %s; %d ranks each)\n",
		ln.Addr(), strings.Join(jobs, ", "), procs)
	err := serve.NewBridge(sv, ln).Serve()
	st := sv.Stats()
	fmt.Fprintf(os.Stderr,
		"dynprof: served %d sessions (%d evicted, %d suspended, %d resumed, %d lease-expired); %d probe-state recoveries\n",
		st.Admitted, st.Evicted, st.Suspended, st.Resumed, st.Expired, len(sv.Recoveries()))
	var agg vt.CompactStats
	for _, name := range sv.Jobs() {
		cs := sv.Job(name).Guide().Collector().CompactStats()
		agg.EventsIn += cs.EventsIn
		agg.Records += cs.Records
		agg.Repeats += cs.Repeats
		agg.Bytes += cs.Bytes
	}
	printCompactSummary(os.Stderr, agg)
	return err
}

// printCompactSummary reports a trace's compact-encoding counters.
func printCompactSummary(w io.Writer, st vt.CompactStats) {
	fmt.Fprintf(w, "dynprof: compact trace: %d events in, %d records out (%d repeats), %d bytes stored, %d bytes saved (%.1fx)\n",
		st.EventsIn, st.Records, st.Repeats, st.Bytes, st.Saved(), st.Ratio())
}

// crashPlan derives an injected fault plan from the recovery flags: every
// node's communication daemon is killed at each multiple of the MTBF, with
// waves staggered slightly per node so they never land on one scheduler
// tick. Returns nil (fault-free) when no MTBF is set.
func crashPlan(nodes int, mtbf, restart time.Duration, waves int) *fault.Plan {
	if mtbf <= 0 || waves <= 0 {
		return nil
	}
	plan := &fault.Plan{}
	for n := 0; n < nodes; n++ {
		for k := 1; k <= waves; k++ {
			plan.DaemonCrashes = append(plan.DaemonCrashes, fault.DaemonCrash{
				Node:    n,
				At:      des.Time(k)*des.Time(mtbf) + des.Time(n)*5*des.Millisecond,
				Restart: des.Time(restart),
			})
		}
	}
	return plan
}

// parseDeck parses key=val input-deck overrides.
func parseDeck(kvs []string) (map[string]int, error) {
	deck := make(map[string]int, len(kvs))
	for _, kv := range kvs {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return nil, fmt.Errorf("bad input parameter %q (want key=val)", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return nil, fmt.Errorf("bad input parameter %q: %v", kv, err)
		}
		deck[key] = n
	}
	return deck, nil
}

// loadScriptFiles preloads every file referenced by insert-file and
// remove-file commands in the script.
func loadScriptFiles(script string) (map[string]string, error) {
	files := make(map[string]string)
	for _, line := range strings.Split(script, "\n") {
		fields := strings.Fields(line)
		if len(fields) < 2 {
			continue
		}
		cmd := fields[0]
		if full, ok := core.Shortcuts[cmd]; ok {
			cmd = full
		}
		if cmd != "insert-file" && cmd != "remove-file" {
			continue
		}
		for _, name := range fields[1:] {
			if _, done := files[name]; done {
				continue
			}
			b, err := os.ReadFile(name)
			if err != nil {
				return nil, err
			}
			files[name] = string(b)
		}
	}
	return files, nil
}
