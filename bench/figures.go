package main

import (
	"crypto/sha256"
	"fmt"
	"math"

	"dynprof/internal/exp"
)

// figuresWL runs every registered figure except scale and tenants (which
// have workloads of their own) through one exp.Runner, so cells shared
// between figures hit its memo cache.
type figuresWL struct {
	opts exp.Options
	ids  []string
}

func newFigures(cfg config) (workload, error) {
	opts := exp.Options{Seed: cfg.seed, SeedSet: true, Parallelism: cfg.workers}
	ids := append(exp.FigureIDs(), "adapt", "compact")
	if cfg.quick {
		// The recover sweep ignores MaxCPUs, so the quick size leaves it out.
		opts.MaxCPUs = 2
	} else {
		ids = append(ids, "recover")
	}
	return &figuresWL{opts: opts, ids: ids}, nil
}

// fig7Panels are the Figure 7 panels the overhead metrics average over.
var fig7Panels = []string{"fig7a", "fig7b", "fig7c", "fig7d"}

func (w *figuresWL) unit(tr *tracer) (*unitOut, error) {
	var cells []exp.CellEvent
	opts := w.opts
	opts.OnCell = func(ev exp.CellEvent) { cells = append(cells, ev) }
	r := exp.NewRunner(opts)
	id := tr.host(0, "exp", "Runner.Figures")
	figs, err := r.Figures(w.ids...)
	tr.done(id)
	if err != nil {
		return nil, err
	}

	out := newUnitOut()
	byID := make(map[string]*exp.Figure, len(figs))
	h := sha256.New()
	for _, f := range figs {
		byID[f.ID] = f
		fmt.Fprintf(h, "# %s\n", f.ID)
		if err := f.CSV(h); err != nil {
			return nil, err
		}
		for _, s := range f.Series {
			for _, p := range s.Points {
				out.attempted++
				if math.IsNaN(p.Value) {
					out.fail("%s %s/%d: NaN", f.ID, s.Label, p.CPUs)
				}
			}
		}
		for _, cf := range f.Failures {
			out.fail("%s %s/%d: %s: %s", cf.Figure, cf.Series, cf.CPUs, cf.Cause, cf.Error)
		}
	}
	out.sum(h)

	for _, pol := range []struct{ metric, label string }{
		{"instr_overhead_pct", exp.Full.String()},
		{"dyn_overhead_pct", exp.Dynamic.String()},
	} {
		v, err := meanOverhead(byID, pol.label)
		if err != nil {
			return nil, err
		}
		out.exact[pol.metric] = v
	}
	f8 := byID["fig8a"]
	top := topCPUs(f8, "Changes")
	cs, ok := f8.At("Changes", top)
	if !ok {
		return nil, fmt.Errorf("bench: fig8a has no Changes point")
	}
	out.exact["confsync_ms"] = cs * 1000

	m := r.Metrics()
	var cellMS []float64
	figMS := make(map[string]float64)
	for _, ev := range cells {
		if !ev.CacheHit && !ev.StoreHit {
			cellMS = append(cellMS, ev.WallMS)
			figMS[ev.Figure] += ev.WallMS
		}
	}
	out.layer["exp.cell_ms.p50"] = pctlFloat(cellMS, 50)
	out.layer["exp.cell_ms.p90"] = pctlFloat(cellMS, 90)
	out.layer["exp.utilization"] = m.Utilization()
	out.layer["exp.cache_hits"] = float64(m.CacheHits)
	out.layer["exp.cells"] = float64(m.Cells)
	out.layer["exp.runs"] = float64(m.Runs)
	for _, id := range w.ids {
		out.layer["exp.figure_ms."+id] = figMS[id]
	}
	return out, nil
}

// meanOverhead averages, over the Figure 7 panels, the policy's execution
// time over None's at the panel's largest CPU count, as a percentage.
func meanOverhead(figs map[string]*exp.Figure, label string) (float64, error) {
	var sum float64
	for _, id := range fig7Panels {
		f := figs[id]
		top := topCPUs(f, exp.None.String())
		none, ok1 := f.At(exp.None.String(), top)
		pol, ok2 := f.At(label, top)
		if !ok1 || !ok2 || none == 0 {
			return 0, fmt.Errorf("bench: %s lacks %s or None at %d CPUs", id, label, top)
		}
		sum += (pol/none - 1) * 100
	}
	return sum / float64(len(fig7Panels)), nil
}

// topCPUs returns the largest CPU count of the named series.
func topCPUs(f *exp.Figure, label string) int {
	top := 0
	for _, s := range f.Series {
		if s.Label != label {
			continue
		}
		for _, p := range s.Points {
			if p.CPUs > top {
				top = p.CPUs
			}
		}
	}
	return top
}
