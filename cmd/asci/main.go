// Command asci runs one ASCI kernel benchmark on the simulated cluster
// under a Table 3 instrumentation policy and reports its execution time
// (optionally writing the trace for postmortem analysis with cmd/vgv).
//
//	asci -app smg98 -policy Subset -procs 8 -trace smg.vgv nx=12 iters=4
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"dynprof/internal/apps"
	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "asci:", err)
		os.Exit(1)
	}
}

func run() error {
	appName := flag.String("app", "smg98", "application: "+strings.Join(apps.Names(), ", "))
	policyName := flag.String("policy", "None", "instrumentation policy: Full, Full-Off, Subset, None, Dynamic")
	procs := flag.Int("procs", 4, "MPI ranks (or OpenMP threads)")
	machName := flag.String("machine", "ibm", "machine preset: ibm or ia32")
	seed := flag.Uint64("seed", 2003, "simulation seed")
	trace := flag.String("trace", "", "write the run's trace to this file (static policies only)")
	flag.Parse()

	app, err := apps.Get(*appName)
	if err != nil {
		return err
	}
	var policy exp.StaticPolicy
	found := false
	for _, p := range exp.AllPolicies() {
		if strings.EqualFold(p.String(), *policyName) {
			policy, found = p, true
		}
	}
	if !found {
		return fmt.Errorf("unknown policy %q", *policyName)
	}
	mach, err := machine.New(*machName)
	if err != nil {
		return err
	}

	deck := make(map[string]int)
	for _, kv := range flag.Args() {
		key, val, ok := strings.Cut(kv, "=")
		if !ok {
			return fmt.Errorf("bad input parameter %q", kv)
		}
		n, err := strconv.Atoi(val)
		if err != nil {
			return err
		}
		deck[key] = n
	}

	if *trace != "" {
		if policy == exp.Dynamic {
			return fmt.Errorf("-trace is supported for the static policies; use cmd/dynprof -trace for Dynamic")
		}
		return runTraced(mach, app, policy, *procs, deck, *seed, *trace)
	}

	res, err := exp.Run(exp.RunSpec{
		AppDef:  app,
		Policy:  policy,
		CPUs:    *procs,
		Machine: mach,
		Args:    deck,
		Seed:    *seed,
	})
	if err != nil {
		return err
	}
	fmt.Printf("%s %s %d CPUs: %.4f s (trace %d bytes)\n",
		res.App, res.Policy, res.CPUs, res.Elapsed.Seconds(), res.TraceBytes)
	if policy == exp.Dynamic {
		fmt.Printf("create+instrument: %.4f s\n", res.CreateAndInstrument.Seconds())
	}
	return nil
}

// runTraced repeats the run with full event retention and writes the
// trace file.
func runTraced(mach *machine.Config, app *guide.App, policy exp.StaticPolicy,
	procs int, deck map[string]int, seed uint64, path string) error {

	bin, err := guide.Build(app, policy.BuildOpts(app))
	if err != nil {
		return err
	}
	s := des.NewScheduler(seed)
	j, err := guide.Launch(s, mach, bin, guide.LaunchOpts{Procs: procs, Args: deck})
	if err != nil {
		return err
	}
	if err := s.Run(); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	defer f.Close()
	if err := j.Collector().WriteTrace(f); err != nil {
		return err
	}
	fmt.Printf("%s %s %d CPUs: %.4f s; trace (%d events) written to %s\n",
		app.Name, policy, procs, j.MainElapsed().Seconds(), j.Collector().Len(), path)
	return nil
}
