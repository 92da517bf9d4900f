package exp

import (
	"encoding/json"
	"fmt"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// This file implements the "tenants" figure: control-operation latency
// percentiles of a multi-tenant dynprof session server (internal/serve)
// as the number of concurrent tool sessions sweeps 100 → 10k. Every cell
// runs one serve.Server over a registry of resident jobs placed on
// disjoint node ranges; sessions arrive inside a fixed virtual window, so
// the arrival rate — and with it the contention on each node's
// fair-scheduled daemon lane — scales with the session count. A small
// fixed percentage of sessions deliberately exceed their probe quota and
// are gracefully evicted mid-sweep, so every cell also exercises the
// eviction path under load.

// Defaults for TenantsSpec's zero fields.
const (
	// DefaultTenantJobs is the resident-job registry size.
	DefaultTenantJobs = 16
	// DefaultTenantProcs is each resident job's rank count.
	DefaultTenantProcs = 4
	// DefaultTenantAbusePct is the percentage of sessions that exceed
	// their probe quota and are evicted (set AbusePct < 0 for none).
	DefaultTenantAbusePct = 2
)

// tenantOps is the number of control operations (insert and remove) a
// well-behaved session issues.
const tenantOps = 4

// tenantWindow is the virtual arrival window of the whole session
// population: a cell with more sessions has a proportionally higher
// arrival rate, which is what loads the shared daemons.
const tenantWindow = 10 * des.Second

// tenantThink is the virtual think time between one session's operations.
const tenantThink = 50 * des.Millisecond

// tenantQuota bounds every session: generous enough for the well-behaved
// op pattern (one function instrumented at a time — two probes), tight
// enough that an abuser's third concurrent function trips it.
var tenantQuota = serve.Quota{MaxProbes: 4}

// tenantSessions is the session sweep of the tenants figure.
var tenantSessions = []int{100, 1000, 10000}

// TenantsSpec describes one tenants cell: a session-count sweep point of
// the multi-tenant server.
type TenantsSpec struct {
	// Sessions is the number of tool sessions arriving in the window.
	Sessions int
	// Jobs is the resident-job registry size (0 = DefaultTenantJobs).
	Jobs int
	// ProcsPerJob is each resident job's rank count (0 = DefaultTenantProcs).
	ProcsPerJob int
	// MaxInFlight caps concurrently admitted sessions (0 = max(64,
	// Sessions/8)); arrivals past the cap wait in an unbounded admission
	// queue.
	MaxInFlight int
	// AbusePct is the percentage of sessions that exceed their probe
	// quota (0 = DefaultTenantAbusePct; < 0 disables abuse).
	AbusePct int
	// Machine is the simulated platform (nil = the IBM Power3 cluster).
	Machine *machine.Config
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s TenantsSpec) norm() TenantsSpec {
	if s.Jobs == 0 {
		s.Jobs = DefaultTenantJobs
	}
	if s.ProcsPerJob == 0 {
		s.ProcsPerJob = DefaultTenantProcs
	}
	if s.MaxInFlight == 0 {
		s.MaxInFlight = s.Sessions / 8
		if s.MaxInFlight < 64 {
			s.MaxInFlight = 64
		}
	}
	if s.AbusePct == 0 {
		s.AbusePct = DefaultTenantAbusePct
	}
	if s.AbusePct < 0 {
		s.AbusePct = 0
	}
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first). queue=0 names the
// unbounded admission queue every cell runs with.
func (s TenantsSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("tenants|sessions=%d|jobs=%d|procs=%d|ops=%d|inflight=%d|queue=0|abuse=%d|%s|seed=%d%s",
		n.Sessions, n.Jobs, n.ProcsPerJob, tenantOps, n.MaxInFlight, n.AbusePct,
		n.Machine.Name, n.Seed, faultKey(n.Machine))
}

func (s TenantsSpec) runCell(bud des.Budget) (cellResult, error) { return runTenantsCell(s, bud) }

func (TenantsSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[TenantsResult](b) }

// TenantsResult is one measured tenants cell. Every field is
// deterministic: the cell is a single-scheduler simulation, so the result
// is byte-identical at any host parallelism.
type TenantsResult struct {
	Sessions  int
	Completed int
	Evicted   int
	Rejected  int
	Queued    int
	// Ops is the number of control operations sampled into the latency
	// distribution (well-behaved sessions only).
	Ops int
	// P50/P95/P99 are percentiles of control-op latency, taken as
	// percentile does.
	P50 des.Time
	P95 des.Time
	P99 des.Time
	// Elapsed is the virtual time at which the last resident rank
	// finalized after shutdown.
	Elapsed des.Time
	// Events is the cell's DES event count.
	Events uint64
	// TraceBytes is the trace volume attributed to completed sessions.
	TraceBytes int64
}

func (r TenantsResult) stats() (des.Time, uint64, []fault.Event) { return r.Elapsed, r.Events, nil }

// percentile returns the sorted sample at index ⌊(n−1)·pct/100⌋ (0 for
// no samples). This rounds down between ranks, so it is not the
// nearest-rank percentile: for n=4 and pct=95 it returns index 2, where
// nearest rank gives index 3.
func percentile(sorted []des.Time, pct int) des.Time {
	if len(sorted) == 0 {
		return 0
	}
	return sorted[(len(sorted)-1)*pct/100]
}

// runTenantsCell executes one tenants cell: build the server and its job
// registry, spawn one Proc per arriving session, and run the whole
// population (plus shutdown and resident finalization) to completion.
func runTenantsCell(spec TenantsSpec, bud des.Budget) (TenantsResult, error) {
	spec = spec.norm()
	res := TenantsResult{Sessions: spec.Sessions}
	if spec.Sessions <= 0 {
		return res, fmt.Errorf("exp: tenants cell needs at least one session, got %d", spec.Sessions)
	}
	cfg := serve.Config{
		Machine:      spec.Machine,
		MaxSessions:  spec.MaxInFlight,
		MaxQueue:     -1,
		DefaultQuota: tenantQuota,
	}
	pop := tenantPop{kind: "tenants", jobs: spec.Jobs, procs: spec.ProcsPerJob, sessions: spec.Sessions}
	load, err := tenantCell(spec.Seed, bud, cfg, pop, func(p *des.Proc, i int, sn *serve.Session) (bool, error) {
		hot := sn.Job().Hot()
		if spec.AbusePct > 0 && i%100 < spec.AbusePct {
			// Pile up functions until the probe quota evicts us; the
			// server removes our probes and frees our daemons.
			for k := 0; k < len(hot); k++ {
				if sn.Insert(p, hot[k]) != nil {
					break
				}
				p.Advance(tenantThink)
			}
			if ev, _ := sn.Evicted(); !ev {
				return false, fmt.Errorf("exp: tenants abuser %s was not evicted", sn.User())
			}
			return false, nil
		}
		for op := 0; op < tenantOps; op += 2 {
			f := hot[(i+op/2)%len(hot)]
			if err := sn.Insert(p, f); err != nil {
				return false, fmt.Errorf("exp: tenants %s insert: %w", sn.User(), err)
			}
			p.Advance(tenantThink)
			if err := sn.Remove(p, f); err != nil {
				return false, fmt.Errorf("exp: tenants %s remove: %w", sn.User(), err)
			}
			p.Advance(tenantThink)
		}
		return true, nil
	})
	if err != nil {
		return res, err
	}
	st := load.sv.Stats()
	res.Completed = st.Closed
	res.Evicted = st.Evicted
	res.Rejected = st.Rejected
	res.Queued = st.Queued
	res.Ops = len(load.samples)
	res.P50 = percentile(load.samples, 50)
	res.P95 = percentile(load.samples, 95)
	res.P99 = percentile(load.samples, 99)
	res.TraceBytes = load.traceBytes
	res.Elapsed = load.elapsed
	res.Events = load.events
	return res, nil
}

// planTenants enumerates the tenants figure: latency percentiles across
// the session sweep. The three series share one cell per x — the Runner
// dedups them by spec key, so each sweep point simulates exactly once.
func planTenants(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Control-op latency vs concurrent sessions (multi-tenant server)",
		XLabel: "Sessions",
		YLabel: "Latency (s)",
	}}
	pcts := []struct {
		label string
		value func(TenantsResult) float64
	}{
		{"p50", func(r TenantsResult) float64 { return r.P50.Seconds() }},
		{"p95", func(r TenantsResult) float64 { return r.P95.Seconds() }},
		{"p99", func(r TenantsResult) float64 { return r.P99.Seconds() }},
	}
	for si, pct := range pcts {
		pct := pct
		plan.fig.Series = append(plan.fig.Series, Series{Label: pct.label})
		for _, n := range opts.cap(tenantSessions) {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   n,
				spec:   TenantsSpec{Sessions: n, Machine: opts.Machine, Seed: opts.seed()},
				value:  func(v cellResult) float64 { return pct.value(v.(TenantsResult)) },
			})
		}
	}
	return plan, nil
}
