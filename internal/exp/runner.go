package exp

import (
	"fmt"
	"math"
	"runtime"
	"sync"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/par"
)

// Metrics is a snapshot of a Runner's cumulative counters.
type Metrics struct {
	// Cells is the number of cells requested (including cache hits).
	Cells int
	// Runs is the number of specs actually executed.
	Runs int
	// Replays is the number of executed specs that replayed their
	// application tuple's tape instead of recomputing the application
	// (a subset of Runs).
	Replays int
	// CacheHits is the number of cells served from the in-memory memo
	// cache.
	CacheHits int
	// StoreHits is the number of cells served from the persistent result
	// store (Options.Store) without re-execution.
	StoreHits int
	// Failures is the number of executed specs that exhausted harness
	// supervision (they assemble as NaN holes with CellFailure records).
	Failures int
	// Retries is the number of re-attempts after retryable failures
	// (livelock, timeout) across all executed specs.
	Retries int
	// Wall is the host wall-clock time spent inside Figures/Run calls.
	Wall time.Duration
	// Busy is the summed per-worker host time executing cells.
	Busy time.Duration
	// Virtual is the total simulated time covered by executed cells.
	Virtual des.Time
	// Workers is the pool size of the most recent Figures call.
	Workers int
}

// Utilization reports Busy as a fraction of Wall across the worker pool
// (1.0 = every worker executed cells for the whole run). A Runner that
// has not executed a Figures call yet — zero Workers or zero Wall, e.g.
// when every cell was served from the cache or the store — reports 0
// rather than dividing by zero.
func (m Metrics) Utilization() float64 {
	if m.Wall <= 0 || m.Workers <= 0 {
		return 0
	}
	u := float64(m.Busy) / (float64(m.Wall) * float64(m.Workers))
	if u > 1 {
		u = 1
	}
	return u
}

// CellEvent describes one assembled figure cell. Events are emitted in
// deterministic presentation order, after all cells have executed: every
// field of the stream is identical at any parallelism except WallMS,
// which measures the host.
type CellEvent struct {
	Figure   string  `json:"figure"`
	Series   string  `json:"series"`
	CPUs     int     `json:"cpus"`
	Key      string  `json:"key"`
	Value    float64 `json:"value"`
	CacheHit bool    `json:"cache_hit"`
	// WallMS is the host milliseconds spent executing the cell (0 when
	// the cell was served from the cache).
	WallMS float64 `json:"wall_ms"`
	// SimS is the simulated seconds the cell's run covered.
	SimS float64 `json:"sim_s"`
	// Events is the cell run's event count, when the result reports one
	// (scale and tenants cells report DES events; adapt cells report
	// recorded instrumentation events).
	Events uint64 `json:"events,omitempty"`
	// Faults is the cell run's structured fault-event stream; omitted
	// for cells on fault-free machines.
	Faults []fault.Event `json:"faults,omitempty"`
	// StoreHit marks a cell served from the persistent result store.
	StoreHit bool `json:"store_hit,omitempty"`
	// Failed marks a cell that exhausted harness supervision: Value is 0
	// here (NaN is not valid JSON) and the figure holds a NaN hole.
	Failed bool `json:"failed,omitempty"`
	// Cause classifies a failed cell (panic/livelock/timeout/error).
	Cause FailureCause `json:"cause,omitempty"`
	// Attempts is the number of execution attempts for freshly executed
	// cells (0 when served from a cache or the store).
	Attempts int `json:"attempts,omitempty"`
	// Replayed marks a freshly executed cell that replayed its
	// application tuple's tape; its values equal a live run's.
	Replayed bool `json:"replayed,omitempty"`
	// Error is a failed cell's final error message.
	Error string `json:"error,omitempty"`
}

// cacheEntry is one memoized cell execution.
type cacheEntry struct {
	val      cellResult
	err      error
	wall     time.Duration
	attempts int
	stored   bool // served from the persistent store
	replayed bool // executed from its application tuple's tape
}

// Runner schedules experiment cells: it enumerates the work-list of any
// set of figures, executes unique cells on a bounded worker pool (the
// cells of one application tuple as one job that computes the application
// once and replays it per policy, see tape.go),
// memoizes results by spec key across figures and calls, and reassembles
// each figure in deterministic order — parallel output is byte-identical
// to sequential. Every execution is supervised (recover, wall-clock
// watchdog, bounded retry per Options); a cell that still fails leaves a
// NaN hole and a CellFailure record instead of aborting the sweep, and a
// persistent Options.Store lets a killed sweep resume without recomputing
// finished cells. Failed executions are memoized like successes — the
// failure was deterministic under supervision, so the Runner never
// silently re-attempts it within one process. A Runner is safe for
// concurrent use.
type Runner struct {
	opts Options

	mu    sync.Mutex
	cache map[string]*cacheEntry
	met   Metrics
}

// NewRunner returns a Runner with an empty memo cache.
func NewRunner(opts Options) *Runner {
	return &Runner{opts: opts, cache: make(map[string]*cacheEntry)}
}

// parallelism resolves the worker pool bound.
func (r *Runner) parallelism() int {
	if r.opts.Parallelism > 0 {
		return r.opts.Parallelism
	}
	return runtime.GOMAXPROCS(0)
}

// Metrics returns a snapshot of the Runner's counters.
func (r *Runner) Metrics() Metrics {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.met
}

// Figure enumerates, executes and assembles one figure by ID.
func (r *Runner) Figure(id string) (*Figure, error) {
	figs, err := r.Figures(id)
	if err != nil {
		return nil, err
	}
	return figs[0], nil
}

// Figures enumerates the full cell work-list of the requested figures,
// executes unique cells on the worker pool (cells shared between figures
// run exactly once), and assembles the figures in request order.
func (r *Runner) Figures(ids ...string) ([]*Figure, error) {
	plans := make([]*figurePlan, len(ids))
	for i, id := range ids {
		p, err := planFor(id, r.opts)
		if err != nil {
			return nil, err
		}
		plans[i] = p
	}
	return r.runPlans(plans)
}

// runPlans is the scheduling core: dedup the combined work-list against
// the memo cache, drain it through the worker pool, then assemble every
// figure (and emit cell events) in deterministic order.
func (r *Runner) runPlans(plans []*figurePlan) ([]*Figure, error) {
	start := time.Now()

	// Enumerate: one job per spec key that is neither cached, served by
	// the persistent store, nor already queued in this call (a repeat of
	// a queued key counts as a cache hit).
	var jobs []cellSpec
	queued := make(map[string]bool)
	total := 0
	r.mu.Lock()
	for _, p := range plans {
		for _, c := range p.cells {
			total++
			k := c.spec.Key()
			if queued[k] {
				r.met.Cells++
				r.met.CacheHits++
				continue
			}
			e, err := r.lookup(c.spec)
			if err != nil {
				r.mu.Unlock()
				return nil, err
			}
			if e == nil {
				queued[k] = true
				jobs = append(jobs, c.spec)
			}
		}
	}
	// Progress reports store hits as cached: neither re-executes.
	done, served := total-len(jobs), total-len(jobs)
	r.mu.Unlock()
	if r.opts.Progress != nil && total > 0 {
		r.opts.Progress(done, total, served)
	}

	// Execute: drain the unique jobs, grouped by application tuple,
	// on the Runner's workers (par.For).
	groups := groupJobs(jobs)
	workers := min(r.parallelism(), len(groups))
	var storeErr error
	cellDone := func(putErr error) {
		r.mu.Lock()
		if putErr != nil && storeErr == nil {
			storeErr = putErr
		}
		done++
		dn := done
		prog := r.opts.Progress
		r.mu.Unlock()
		if prog != nil {
			prog(dn, total, served)
		}
	}
	par.For(workers, len(groups), func(i int) { r.runGroup(groups[i], cellDone) })
	// A broken store means resume would silently lose results the user
	// asked to persist: fail the sweep loudly.
	if storeErr != nil {
		return nil, storeErr
	}

	// Assemble: walk every plan in presentation order. A failed cell
	// contributes a NaN point and a CellFailure record instead of
	// aborting the sweep, so healthy cells keep their byte-identical
	// values. The first occurrence of a key executed in this call is
	// reported as a fresh run, every other occurrence as a cache hit.
	emitted := make(map[string]bool)
	figs := make([]*Figure, len(plans))
	for i, p := range plans {
		for _, c := range p.cells {
			k := c.spec.Key()
			r.mu.Lock()
			e := r.cache[k]
			r.mu.Unlock()
			if e == nil {
				return nil, fmt.Errorf("exp: %s: cell %q missing after run", p.fig.ID, k)
			}
			fresh := queued[k] && !emitted[k]
			ev := CellEvent{
				Figure:   p.fig.ID,
				Series:   p.fig.Series[c.series].Label,
				CPUs:     c.cpus,
				Key:      k,
				CacheHit: !fresh,
				StoreHit: e.stored,
				SimS:     e.simTime().Seconds(),
			}
			if fresh {
				ev.WallMS = float64(e.wall) / float64(time.Millisecond)
				ev.Attempts = e.attempts
				ev.Replayed = e.replayed
			}
			if e.err != nil {
				p.fig.Series[c.series].Points = append(p.fig.Series[c.series].Points, Point{CPUs: c.cpus, Value: math.NaN()})
				p.fig.Failures = append(p.fig.Failures, CellFailure{
					Figure:   p.fig.ID,
					Series:   p.fig.Series[c.series].Label,
					CPUs:     c.cpus,
					Key:      k,
					Cause:    CauseOf(e.err),
					Attempts: e.attempts,
					Error:    e.err.Error(),
				})
				ev.Failed = true
				ev.Cause = CauseOf(e.err)
				ev.Error = e.err.Error()
			} else {
				ev.Value = c.value(e.val)
				_, ev.Events, ev.Faults = e.val.stats()
				p.fig.Series[c.series].Points = append(p.fig.Series[c.series].Points, Point{CPUs: c.cpus, Value: ev.Value})
			}
			if r.opts.OnCell != nil {
				r.opts.OnCell(ev)
			}
			emitted[k] = true
		}
		figs[i] = p.fig
	}

	r.mu.Lock()
	r.met.Wall += time.Since(start)
	if workers > 0 {
		r.met.Workers = workers
	}
	r.mu.Unlock()
	return figs, nil
}

// Run executes spec through the Runner's memo cache: a spec whose key has
// already run (in any prior Run or Figures call) returns the cached
// result without re-simulating. Unlike figure assembly, a failed run is
// returned as an error.
func (r *Runner) Run(spec RunSpec) (Result, error) {
	r.mu.Lock()
	e, err := r.lookup(spec)
	r.mu.Unlock()
	if err != nil {
		return Result{}, err
	}
	if e == nil {
		var putErr error
		e, putErr = r.execute(spec, spec.runCell, false)
		r.mu.Lock()
		r.met.Wall += e.wall
		r.mu.Unlock()
		if putErr != nil {
			return Result{}, putErr
		}
	}
	if e.err != nil {
		return Result{}, e.err
	}
	return e.val.(Result), nil
}

// lookup counts one requested cell and serves it from the memo cache,
// then the persistent store; nil means the spec must execute. The caller
// holds r.mu.
func (r *Runner) lookup(spec cellSpec) (*cacheEntry, error) {
	k := spec.Key()
	r.met.Cells++
	if e, ok := r.cache[k]; ok {
		r.met.CacheHits++
		return e, nil
	}
	e, err := r.fromStore(spec)
	if e != nil {
		r.cache[k] = e
		r.met.StoreHits++
	}
	return e, err
}

// execute runs spec (through run, which replayed says is a tape replay)
// under supervision, journals a success to the persistent store, and
// memoizes the entry with its run counters. putErr reports a journal
// write that failed.
func (r *Runner) execute(spec cellSpec, run func(des.Budget) (cellResult, error), replayed bool) (e *cacheEntry, putErr error) {
	t0 := time.Now()
	val, err, attempts := superviseCell(run, r.opts)
	e = &cacheEntry{val: val, err: err, wall: time.Since(t0), attempts: attempts, replayed: replayed}
	if err == nil && r.opts.Store != nil {
		putErr = r.opts.Store.Put(spec.Key(), val)
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.cache[spec.Key()] = e
	r.met.Runs++
	if replayed {
		r.met.Replays++
	}
	r.met.Busy += e.wall
	r.met.Virtual += e.simTime()
	r.met.Retries += attempts - 1
	if err != nil {
		r.met.Failures++
	}
	return e, putErr
}

// fromStore serves spec from the persistent store: nil when there is no
// store or it lacks the key, an error when the journaled record does not
// decode as the spec's result type (resuming would silently lose it).
func (r *Runner) fromStore(spec cellSpec) (*cacheEntry, error) {
	if r.opts.Store == nil {
		return nil, nil
	}
	raw, ok := r.opts.Store.Get(spec.Key())
	if !ok {
		return nil, nil
	}
	v, err := spec.decode(raw)
	if err != nil {
		return nil, fmt.Errorf("exp: store: record %q: %w", spec.Key(), err)
	}
	return &cacheEntry{val: v, stored: true}, nil
}

// simTime is the simulated time the entry's result covered (0 when a
// failed attempt left no result).
func (e *cacheEntry) simTime() des.Time {
	if e.val == nil {
		return 0
	}
	virt, _, _ := e.val.stats()
	return virt
}
