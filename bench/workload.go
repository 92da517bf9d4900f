package main

import (
	"fmt"
	"hash"
)

// config is what every workload is built from. The seed is the only input
// a workload reads; everything it runs is generated from it.
type config struct {
	seed    uint64
	workers int  // host worker threads: min(2, nproc)
	quick   bool // reduced sizes for the warm-up and the smoke test
	workdir string
}

// workload is one benchmark input set, built (its inputs generated) once
// per process and then run as many measured units as the run allows.
type workload interface {
	// unit runs one measured pass. tr is nil in untraced runs.
	unit(tr *tracer) (*unitOut, error)
}

// tracedExtra is implemented by workloads with per-layer measurements that
// need extra simulation; a traced run calls it once, after the timed units.
type tracedExtra interface {
	extra(tr *tracer) (map[string]float64, error)
}

// unitOut is what one unit simulated and checked.
type unitOut struct {
	// digest is the sha256 of the unit's simulated outputs: identical for
	// every unit of a run, and across builds unless simulated results change.
	digest string
	// attempted counts the unit's operations (cells, sessions, kernels);
	// failures describes the ones that failed a correctness check.
	attempted int
	failures  []string
	// events is the unit's DES event count (0 where the DES runs out of
	// the benchmark's sight).
	events uint64
	// exact holds virtual-clock end-to-end metrics, deterministic for a seed.
	exact map[string]float64
	// layer holds per-layer metrics, reported from traced runs.
	layer map[string]float64
}

func newUnitOut() *unitOut {
	return &unitOut{exact: make(map[string]float64), layer: make(map[string]float64)}
}

func (u *unitOut) fail(format string, args ...any) {
	u.failures = append(u.failures, fmt.Sprintf(format, args...))
}

func (u *unitOut) sum(h hash.Hash) { u.digest = fmt.Sprintf("%x", h.Sum(nil)) }

// workloadDef registers one workload; BENCHMARK.json and README.md give
// the reason for each.
type workloadDef struct {
	name  string
	build func(cfg config) (workload, error)
	// exact lists the virtual-clock metrics the workload reports, with units.
	exact [][2]string
	// events marks workloads whose DES event count the benchmark observes.
	events bool
}

// workloads run in this order; the all-workloads mode goes round-robin
// through it so host drift spreads evenly.
var workloads = []workloadDef{
	{
		name:  "figures",
		build: newFigures,
		exact: [][2]string{{"instr_overhead_pct", "%"}, {"dyn_overhead_pct", "%"}, {"confsync_ms", "ms"}},
	},
	{
		name:   "scale",
		build:  newScale,
		events: true,
	},
	{
		name:  "tenants",
		build: newTenants,
		exact: [][2]string{
			{"ctl_p99_s.r10", "s"}, {"ctl_p50_s.r30", "s"}, {"ctl_p99_s.r30", "s"},
			{"ctl_p99_s.r1000", "s"}, {"max_rate_sps", "1/s"},
		},
		events: true,
	},
	{
		name:   "trace",
		build:  newTrace,
		exact:  [][2]string{{"trace_bytes_per_event", "B"}},
		events: true,
	},
}

func lookupWorkload(name string) (workloadDef, error) {
	var names []string
	for _, d := range workloads {
		if d.name == name {
			return d, nil
		}
		names = append(names, d.name)
	}
	return workloadDef{}, fmt.Errorf("bench: unknown workload %q (have %v)", name, names)
}
