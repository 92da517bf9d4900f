package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"slices"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// A synthetic figure registered from this file alone: its spec, result,
// planner and registry entry all live here, which is everything a new
// figure needs.

// echoSpec is one synthetic cell: Procs DES processes, process i
// advancing (i+1) ms and logging one fault event when it finishes.
type echoSpec struct {
	Procs int
	Seed  uint64
}

func (s echoSpec) Key() string { return fmt.Sprintf("echo|procs=%d|seed=%d", s.Procs, s.Seed) }

func (s echoSpec) runCell(bud des.Budget) (cellResult, error) {
	sch := des.NewScheduler(s.Seed, des.WithBudget(bud))
	var res echoResult
	for i := 0; i < s.Procs; i++ {
		sch.Spawn(fmt.Sprintf("echo%d", i), func(p *des.Proc) {
			p.Advance(des.Time(i+1) * des.Millisecond)
			res.Faults = append(res.Faults, fault.Event{At: p.Now(), Kind: fault.KindStall, Node: i, Rank: -1})
		})
	}
	if err := runScheduler(sch); err != nil {
		return res, err
	}
	res.Elapsed, res.Events = sch.Now(), sch.Executed()
	return res, nil
}

func (echoSpec) decode(b json.RawMessage) (cellResult, error) { return decodeAs[echoResult](b) }

// echoResult is one synthetic cell's measurements.
type echoResult struct {
	Elapsed des.Time
	Events  uint64
	Faults  []fault.Event
}

func (r echoResult) stats() (des.Time, uint64, []fault.Event) { return r.Elapsed, r.Events, r.Faults }

// planEcho enumerates the synthetic figure: elapsed time vs process count.
func planEcho(opts Options) (*figurePlan, error) {
	plan := &figurePlan{fig: &Figure{Title: "Synthetic figure", XLabel: "Procs", YLabel: "Time (s)"}}
	plan.fig.Series = []Series{{Label: "elapsed"}}
	for _, n := range opts.cap([]int{1, 2, 4}) {
		plan.cells = append(plan.cells, planCell{
			cpus:  n,
			spec:  echoSpec{Procs: n, Seed: opts.seed()},
			value: func(v cellResult) float64 { return v.(echoResult).Elapsed.Seconds() },
		})
	}
	return plan, nil
}

// registerEcho adds the synthetic figure to the registry for one test.
func registerEcho(t *testing.T) {
	saved := figureDefs
	figureDefs = append(slices.Clip(figureDefs), figureDef{"echo", "synthetic figure", onDemandFigure, planEcho})
	t.Cleanup(func() { figureDefs = saved })
}

// TestSyntheticFigure: a figure added by one registry line runs through
// Runner.Figures, streams cell events with its result's simulated time,
// events and faults, is offered as a flag but stays out of FigureIDs, and
// resumes from the journal without re-executing a cell.
func TestSyntheticFigure(t *testing.T) {
	registerEcho(t)
	if slices.Contains(FigureIDs(), "echo") {
		t.Error("an on-demand figure must stay out of FigureIDs")
	}
	if flags := FigureFlags(); flags[len(flags)-1] != (FigureFlag{ID: "echo", Usage: "synthetic figure"}) {
		t.Errorf("last figure flag = %+v, want the synthetic figure", flags[len(flags)-1])
	}

	dir := t.TempDir()
	sweep := func() (string, []CellEvent, Metrics) {
		st, err := OpenStore(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		var evs []CellEvent
		r := NewRunner(Options{Parallelism: 2, Store: st, OnCell: func(ev CellEvent) { evs = append(evs, ev) }})
		figs, err := r.Figures("echo")
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := figs[0].Render(&b); err != nil {
			t.Fatal(err)
		}
		return b.String(), evs, r.Metrics()
	}
	first, fresh, m1 := sweep()
	resumed, stored, m2 := sweep()
	if m1.Runs != 3 || m2.Runs != 0 || m2.StoreHits != 3 {
		t.Errorf("runs %d then %d with %d store hits, want 3, then 0 with 3", m1.Runs, m2.Runs, m2.StoreHits)
	}
	if first != resumed {
		t.Errorf("resumed figure differs:\n%s\nvs\n%s", resumed, first)
	}
	if len(fresh) != 3 || len(stored) != 3 {
		t.Fatalf("got %d and %d cell events, want 3 each", len(fresh), len(stored))
	}
	for i, ev := range fresh {
		procs := []int{1, 2, 4}[i]
		if ev.Figure != "echo" || ev.CPUs != procs || ev.StoreHit {
			t.Errorf("event %d = %+v, want a fresh echo cell at %d procs", i, ev, procs)
		}
		if want := float64(procs) / 1000; ev.SimS != want || ev.Value != want {
			t.Errorf("event %d SimS %v, Value %v; want %v", i, ev.SimS, ev.Value, want)
		}
		if ev.Events == 0 || len(ev.Faults) != procs {
			t.Errorf("event %d carries %d events and %d faults, want some events and %d faults", i, ev.Events, len(ev.Faults), procs)
		}
		got := stored[i]
		if !got.StoreHit || got.SimS != ev.SimS || got.Events != ev.Events || !reflect.DeepEqual(got.Faults, ev.Faults) {
			t.Errorf("resumed event %d = %+v, want a store hit matching %+v", i, got, ev)
		}
	}
}
