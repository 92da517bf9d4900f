package exp

import "fmt"

// planCell is one schedulable cell of a figure: the spec to execute and
// where its extracted value lands in the assembled figure.
type planCell struct {
	series int // index into fig.Series
	cpus   int // x coordinate of the produced point
	spec   cellSpec
	value  func(cellResult) float64 // extracts the plotted value from the result
}

// figurePlan is a figure skeleton (labels, empty series) plus its cell
// work-list in presentation order.
type figurePlan struct {
	fig   *Figure
	cells []planCell
}

// figureSet says which default sweeps include a registered figure.
type figureSet int

const (
	paperFigure     figureSet = iota // in -all and FigureIDs()
	extensionFigure                  // in FigureIDs() (so the golden gate), not in -all
	onDemandFigure                   // by ID only: default sweeps and goldens never see it
)

// figureDef registers one figure: its ID, its cmd/experiments flag help,
// its default-sweep membership and the planner enumerating its cells.
type figureDef struct {
	id    string
	usage string
	set   figureSet
	plan  func(Options) (*figurePlan, error)
}

// figureDefs is the figure registry, in cmd/experiments order. Adding a
// figure means one line here plus its own file (plan, spec and result).
var figureDefs = []figureDef{
	{"fig7a", "Figure 7(a): Smg98 execution times", paperFigure, planFig7("smg98")},
	{"fig7b", "Figure 7(b): Sppm execution times", paperFigure, planFig7("sppm")},
	{"fig7c", "Figure 7(c): Sweep3d execution times", paperFigure, planFig7("sweep3d")},
	{"fig7d", "Figure 7(d): Umt98 execution times", paperFigure, planFig7("umt98")},
	{"fig8a", "Figure 8(a): VT_confsync on IBM", paperFigure, planFig8a},
	{"fig8b", "Figure 8(b): statistics write on IBM", paperFigure, planFig8b},
	{"fig8c", "Figure 8(c): VT_confsync on IA32", paperFigure, planFig8c},
	{"fig9", "Figure 9: time to create and instrument", paperFigure, planFig9},
	{"hybrid", "Section 5.1 hybrid: dynamically inserted confsync points", extensionFigure, planHybrid},
	{"faults", "fault-injection sweep: run and confsync cost vs fault intensity", extensionFigure, planFaults},
	{"scale", "scale sweep: instrumented kernels at 1k/4k/16k ranks on the sharded DES", onDemandFigure, planScale},
	{"tenants", "tenants sweep: control-op latency percentiles at 100/1k/10k concurrent sessions", onDemandFigure, planTenants},
	{"adapt", "adapt sweep: achieved overhead and retained events vs perturbation budget on all four kernels", onDemandFigure, planAdapt},
	{"recover", "recover sweep: reconvergence latency, lost-event fraction, and co-tenant impact vs daemon MTBF", onDemandFigure, planRecover},
	{"compact", "compact sweep: trace bytes per event at Full instrumentation, verbatim vs redundancy-suppressed", onDemandFigure, planCompact},
}

// FigureIDs lists the figure identifiers the Runner enumerates by
// default, in presentation order: the paper's figures plus the hybrid and
// fault-injection extensions. On-demand figures are left out.
func FigureIDs() []string {
	var ids []string
	for _, d := range figureDefs {
		if d.set != onDemandFigure {
			ids = append(ids, d.id)
		}
	}
	return ids
}

// FigureFlag is a read-only view of one registered figure, for a CLI.
// InAll marks the paper's figures, which a run-everything request adds.
type FigureFlag struct {
	ID, Usage string
	InAll     bool
}

// FigureFlags lists every registered figure, on-demand ones included, in
// presentation order.
func FigureFlags() []FigureFlag {
	flags := make([]FigureFlag, len(figureDefs))
	for i, d := range figureDefs {
		flags[i] = FigureFlag{ID: d.id, Usage: d.usage, InAll: d.set == paperFigure}
	}
	return flags
}

// planFor builds the cell work-list of one registered figure by its ID.
func planFor(id string, opts Options) (*figurePlan, error) {
	for _, d := range figureDefs {
		if d.id == id {
			plan, err := d.plan(opts)
			if err == nil {
				plan.fig.ID = d.id
			}
			return plan, err
		}
	}
	return nil, fmt.Errorf("exp: unknown figure %q (have %v)", id, FigureIDs())
}
