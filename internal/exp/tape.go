package exp

import (
	"cmp"
	"fmt"
	"slices"
	"sync"

	"dynprof/internal/des"
	"dynprof/internal/machine"
	"dynprof/internal/tape"
)

// Compute once, replay per policy. An instrumentation policy changes only
// what the tool does, never what the application computes, so the cells
// of one application tuple — kernel, size, machine, input deck and seed —
// differ only in their tool. The Runner executes such a tuple's cells as
// one group: the first runs live and records the application's tape, and
// every later cell replays it through the live call gates, MPI and OpenMP
// runtimes (see package tape). Faults that only move time (slowdowns,
// stalls, control delay) leave the tape unchanged; rank crashes do not,
// so their cells always run live.

// tapedSpec is a cell that can record or replay its application's tape.
type tapedSpec interface {
	cellSpec
	// tapeKey names the application tuple whose cells share one tape;
	// "" means the cell always runs live.
	tapeKey() string
	// runTaped is runCell recording into a blank tp or replaying a
	// recorded one (see guide.LaunchOpts.Tape).
	runTaped(bud des.Budget, tp *tape.Tape) (cellResult, error)
}

// tapeTuple renders the application tuple a tape is valid for.
func tapeTuple(app string, cpus int, m *machine.Config, args map[string]int, seed uint64) string {
	return fmt.Sprintf("%s|cpus=%d|%s|%s|seed=%d", app, cpus, m.Name, argsKey(args), seed)
}

// cellGroup is one worker job: the cells of one application tuple, or a
// single cell that runs live.
type cellGroup struct {
	cells  []cellSpec
	weight int // the tuple's CPUs × its number of cells; 0 for a live cell
}

// groupJobs gathers the jobs sharing an application tuple into groups, in
// order of first appearance, then orders the groups largest first — by
// CPUs × cells — so the biggest tuples do not form the sweep's tail.
func groupJobs(jobs []cellSpec) []cellGroup {
	var groups []cellGroup
	at := make(map[string]int)
	for _, spec := range jobs {
		ts, ok := spec.(tapedSpec)
		key := ""
		if ok {
			key = ts.tapeKey()
		}
		if key == "" {
			groups = append(groups, cellGroup{cells: []cellSpec{spec}})
			continue
		}
		i, ok := at[key]
		if !ok {
			i = len(groups)
			at[key] = i
			groups = append(groups, cellGroup{})
		}
		groups[i].cells = append(groups[i].cells, spec)
		groups[i].weight += tapeCPUs(spec)
	}
	slices.SortStableFunc(groups, func(a, b cellGroup) int { return cmp.Compare(b.weight, a.weight) })
	return groups
}

// tapeCPUs is a taped cell's CPU count.
func tapeCPUs(spec cellSpec) int {
	switch s := spec.(type) {
	case RunSpec:
		return s.CPUs
	case AdaptSpec:
		return s.norm().CPUs
	}
	return 0
}

// recording is a group's recording cell: it keeps the tape of a
// successful attempt. Each attempt records a fresh tape, so an abandoned
// (timed-out) attempt never writes the tape a later attempt publishes.
type recording struct {
	mu sync.Mutex
	tp *tape.Tape
}

// run is the recording cell's supervised body.
func (rc *recording) run(ts tapedSpec) func(des.Budget) (cellResult, error) {
	return func(bud des.Budget) (cellResult, error) {
		tp := new(tape.Tape)
		v, err := ts.runTaped(bud, tp)
		if err == nil {
			rc.mu.Lock()
			rc.tp = tp
			rc.mu.Unlock()
		}
		return v, err
	}
}

// tape returns the recorded tape once the cell has succeeded: nil when no
// attempt succeeded, and nil with spoiled set when the application did
// something the tape cannot represent.
func (rc *recording) tape() (tp *tape.Tape, spoiled bool) {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	if rc.tp == nil {
		return nil, false
	}
	if rc.tp.Err() != nil {
		return nil, true
	}
	return rc.tp, false
}

// runGroup executes one group's cells in order: the first cell that may
// be followed by a replay records, and once a recording succeeds every
// later cell replays its tape. A failed, timed-out or budget-tripped
// recording leaves the next cell to record. The tape is dropped when the
// group returns. done receives each cell's journal error as it finishes.
func (r *Runner) runGroup(g cellGroup, done func(putErr error)) {
	var tp *tape.Tape
	live := len(g.cells) == 1
	for i, spec := range g.cells {
		run := spec.runCell
		replay := false
		var rc *recording
		if ts, ok := spec.(tapedSpec); ok && !live {
			switch {
			case tp != nil:
				replay = true
				run = func(bud des.Budget) (cellResult, error) {
					return ts.runTaped(bud, tp)
				}
			case i < len(g.cells)-1:
				rc = new(recording)
				run = rc.run(ts)
			}
		}
		e, putErr := r.execute(spec, run, replay)
		if rc != nil && e.err == nil {
			tp, live = rc.tape()
		}
		done(putErr)
	}
}
