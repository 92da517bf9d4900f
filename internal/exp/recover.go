package exp

import (
	"encoding/json"
	"errors"
	"fmt"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// This file implements the "recover" figure: control-plane fault tolerance
// of the multi-tenant session server as daemon reliability degrades. Each
// cell runs a fixed session workload twice — once under a crash schedule
// derived from a per-node daemon MTBF (plus light control-message loss),
// once fault-free — and reports how fast the probe ledgers reconverge
// after each restart, what fraction of probe trace events the crash
// windows cost, and how much collateral latency the recovery traffic adds
// to control operations that themselves succeeded.

// The recover workload. Only the daemon MTBF varies across the sweep.
const (
	// recoverSessions is the tool-session population per cell.
	recoverSessions = 64
	// recoverJobs is the resident-job registry size (one node each). Two
	// sessions per job: enough co-tenancy that repairs contend, not so
	// much that every crash wave freezes the job in serialized replays.
	recoverJobs = 32
	// recoverProcs is each resident job's rank count.
	recoverProcs = 4
	// recoverOps is the insert/remove operations per session on its
	// working function (the held function stays installed throughout).
	recoverOps = 4
	// recoverDropPct is the control-message loss percentage mixed in with
	// the crashes, so retransmission and fencing interact.
	recoverDropPct = 5
	// recoverHorizon is the virtual time at which sessions detach
	// (crashes stop shortly before, so final replays complete).
	recoverHorizon = 30 * des.Second
	// DefaultRecoverMTBF is the per-node daemon mean time between crashes
	// of a RecoverSpec with a zero MTBF.
	DefaultRecoverMTBF = 5 * des.Second
)

// recoverMTBFSecs is the daemon-MTBF sweep of the recover figure.
var recoverMTBFSecs = []int{2, 5, 10, 20}

// recoverStagger offsets node n's crash times by n*recoverStagger so
// restarts never share a simulation timestamp across nodes.
const recoverStagger = 5 * des.Millisecond

// RecoverSpec describes one recover cell: a daemon-MTBF sweep point of the
// crash-recovery workload.
type RecoverSpec struct {
	// MTBF is the per-node daemon mean time between crashes: every node's
	// daemons crash at k*MTBF (staggered per node), k = 1, 2, ...
	// (0 = DefaultRecoverMTBF).
	MTBF des.Time
	// Machine is the simulated platform (nil = the IBM Power3 cluster); its
	// own fault plan, if any, is replaced by the cell's derived plan.
	Machine *machine.Config
	// Seed fixes all simulated asynchrony (used literally; 0 is valid).
	Seed uint64
}

// norm fills in the documented defaults.
func (s RecoverSpec) norm() RecoverSpec {
	if s.MTBF == 0 {
		s.MTBF = DefaultRecoverMTBF
	}
	if s.Machine == nil {
		s.Machine = machine.MustNew("ibm-power3")
	}
	return s
}

// Key canonicalises the spec (defaults resolved first). The derived crash
// plan is fully determined by the MTBF and the workload constants, so it
// needs no fragment of its own.
func (s RecoverSpec) Key() string {
	n := s.norm()
	return fmt.Sprintf("recover|mtbf=%d|sessions=%d|jobs=%d|procs=%d|ops=%d|drop=%d|horizon=%d|%s|seed=%d",
		n.MTBF, recoverSessions, recoverJobs, recoverProcs, recoverOps, recoverDropPct, recoverHorizon,
		n.Machine.Name, n.Seed)
}

func (s RecoverSpec) runCell(bud des.Budget) (cellResult, error) { return runRecoverCell(s, bud) }

func (RecoverSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[RecoverResult](b) }

// RecoverResult is one measured recover cell. Every field is
// deterministic: both runs are single-scheduler simulations, so the result
// is byte-identical at any host parallelism.
type RecoverResult struct {
	Sessions int
	// Crashes / Restarts / Replays count the faulted run's daemon
	// lifecycle events (from the injector's event log).
	Crashes  int
	Restarts int
	Replays  int
	// Recoveries is the number of automatic probe-state repairs the server
	// observed (one per session per crash of its node, when the repair
	// replayed at least one probe).
	Recoveries int
	// ReconvergeP50/P95 are percentiles (see percentile) of the probe-state
	// reconvergence latency: restart notification to replayed ledger.
	ReconvergeP50 des.Time
	ReconvergeP95 des.Time
	// LostFrac is the fraction of probe trace events the crash windows
	// cost, measured against the fault-free twin (probes are torn out of
	// target images between a crash and its replay).
	LostFrac float64
	// CoTenantP95 is the faulted/fault-free ratio of the control-op
	// latency p95 over completed sessions: the collateral cost recovery
	// traffic imposes on operations that themselves succeeded.
	CoTenantP95 float64
	// Evicted counts sessions lost in the faulted run (control-path
	// give-ups under the layered message loss; zero under pure crashes).
	Evicted int
	// Retries / Drops count the faulted run's retransmissions and lost
	// control messages.
	Retries int
	Drops   int
	// Elapsed is the faulted run's final virtual time; Events its DES
	// event count.
	Elapsed des.Time
	Events  uint64
	// Faults is the faulted run's daemon-lifecycle event stream (crashes,
	// restarts, replays; per-message loss and retry events are summarised
	// by Drops and Retries instead of stored).
	Faults []fault.Event
}

func (r RecoverResult) stats() (des.Time, uint64, []fault.Event) {
	return r.Elapsed, r.Events, r.Faults
}

// runRecoverWorkload executes the session workload on one server, with
// the machine carrying plan (nil: fault-free). Sessions arrive inside the
// tenant window, install one held function (the ledger state that crash
// recovery must restore), cycle insert/remove on a working function, then
// idle to the horizon and detach. Sessions evicted by control-path
// give-ups bow out; everything else must succeed.
func runRecoverWorkload(spec RecoverSpec, plan *fault.Plan, bud des.Budget) (*tenantLoad, error) {
	cfg := serve.Config{Machine: spec.Machine.WithFaultPlan(plan)}
	pop := tenantPop{kind: "recover", jobs: recoverJobs, procs: recoverProcs, sessions: recoverSessions}
	return tenantCell(spec.Seed, bud, cfg, pop, func(p *des.Proc, i int, sn *serve.Session) (bool, error) {
		// An op that itself triggers the eviction returns the control-path
		// give-up error, not ErrEvicted — so classify by session state.
		failed := func(what string, err error) error {
			if ev, _ := sn.Evicted(); ev || errors.Is(err, serve.ErrEvicted) {
				return nil
			}
			return fmt.Errorf("exp: recover %s %s: %w", sn.User(), what, err)
		}
		hot := sn.Job().Hot()
		held := hot[i/recoverJobs%len(hot)]
		work := hot[(i/recoverJobs+1)%len(hot)]
		if err := sn.Insert(p, held); err != nil {
			return false, failed("hold", err)
		}
		for op := 0; op < recoverOps; op += 2 {
			p.Advance(tenantThink)
			if err := sn.Insert(p, work); err != nil {
				return false, failed("insert", err)
			}
			p.Advance(tenantThink)
			if err := sn.Remove(p, work); err != nil {
				return false, failed("remove", err)
			}
		}
		// Hold the installed function across the remaining crash waves.
		if now := p.Now(); now < recoverHorizon {
			p.Advance(recoverHorizon - now)
		}
		ev, _ := sn.Evicted()
		return !ev, nil
	})
}

// recoverPlan derives the cell's fault plan: every node hosting a resident
// job crashes at k*MTBF (staggered per node) until two seconds before the
// horizon — leaving the last wave room to replay — with recoverDropPct
// control-message loss layered on top.
func recoverPlan(spec RecoverSpec) *fault.Plan {
	plan := &fault.Plan{CtrlLossProb: float64(recoverDropPct) / 100}
	for n := 0; n < recoverJobs; n++ {
		for at := spec.MTBF; at <= recoverHorizon-2*des.Second; at += spec.MTBF {
			plan.DaemonCrashes = append(plan.DaemonCrashes,
				fault.DaemonCrash{Node: n, At: at + des.Time(n)*recoverStagger})
		}
	}
	return plan
}

// runRecoverCell executes one recover cell: the workload under the derived
// crash plan, then its fault-free twin, and the comparison metrics.
func runRecoverCell(spec RecoverSpec, bud des.Budget) (RecoverResult, error) {
	spec = spec.norm()
	res := RecoverResult{Sessions: recoverSessions}
	faulted, err := runRecoverWorkload(spec, recoverPlan(spec), bud)
	if err != nil {
		return res, err
	}
	clean, err := runRecoverWorkload(spec, nil, bud)
	if err != nil {
		return res, err
	}

	res.Evicted = faulted.sv.Stats().Evicted
	res.Elapsed = faulted.elapsed
	res.Events = faulted.events
	recoveries := faulted.sv.Recoveries()
	res.Recoveries = len(recoveries)
	lat := make([]des.Time, 0, len(recoveries))
	for _, rec := range recoveries {
		lat = append(lat, rec.Latency)
	}
	sort.Slice(lat, func(a, b int) bool { return lat[a] < lat[b] })
	res.ReconvergeP50 = percentile(lat, 50)
	res.ReconvergeP95 = percentile(lat, 95)
	if clean.traceBytes > 0 {
		res.LostFrac = 1 - float64(faulted.traceBytes)/float64(clean.traceBytes)
		if res.LostFrac < 0 {
			res.LostFrac = 0
		}
	}
	if p95 := percentile(clean.samples, 95); p95 > 0 {
		res.CoTenantP95 = float64(percentile(faulted.samples, 95)) / float64(p95)
	}
	for _, e := range faulted.sv.System().Faults().Events() {
		switch e.Kind {
		case fault.KindDaemonCrash:
			res.Crashes++
			res.Faults = append(res.Faults, e)
		case fault.KindDaemonRestart:
			res.Restarts++
			res.Faults = append(res.Faults, e)
		case fault.KindLedgerReplay:
			res.Replays++
			res.Faults = append(res.Faults, e)
		case fault.KindCtrlRetry:
			res.Retries++
		case fault.KindCtrlDrop:
			res.Drops++
		}
	}
	return res, nil
}

// planRecover enumerates the recover figure: recovery metrics across the
// daemon-MTBF sweep. All series share one cell per x — the Runner dedups
// them by spec key, so each sweep point simulates exactly once.
func planRecover(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{
		Title:  "Crash recovery vs daemon MTBF (multi-tenant server)",
		XLabel: "Daemon MTBF (s)",
		YLabel: "Reconvergence (s) / ratio",
	}}
	series := []struct {
		label string
		value func(RecoverResult) float64
	}{
		{"reconverge-p50", func(r RecoverResult) float64 { return r.ReconvergeP50.Seconds() }},
		{"reconverge-p95", func(r RecoverResult) float64 { return r.ReconvergeP95.Seconds() }},
		{"lost-frac", func(r RecoverResult) float64 { return r.LostFrac }},
		{"cotenant-p95-ratio", func(r RecoverResult) float64 { return r.CoTenantP95 }},
	}
	for si, sr := range series {
		sr := sr
		plan.fig.Series = append(plan.fig.Series, Series{Label: sr.label})
		for _, mtbf := range recoverMTBFSecs {
			plan.cells = append(plan.cells, planCell{
				series: si,
				cpus:   mtbf,
				spec: RecoverSpec{MTBF: des.Time(mtbf) * des.Second,
					Machine: opts.Machine, Seed: opts.seed()},
				value: func(v cellResult) float64 { return sr.value(v.(RecoverResult)) },
			})
		}
	}
	return plan, nil
}
