package smg98

import (
	"fmt"
	"math"

	"dynprof/internal/mpi"
)

// timer is a named phase stopwatch over the rank's virtual clock.
type timer struct {
	name    string
	started float64
	total   float64
	running bool
}

func (k *kernel) timerCreate(name string) (t *timer) {
	k.call(smgTimerCreate, func() { t = &timer{name: name}; k.work(50) })
	return
}

func (k *kernel) wallClock() (now float64) {
	k.call(smgWallClock, func() { now = k.m.Wtime(); k.work(26) })
	return
}

func (k *kernel) timerStart(t *timer) {
	k.call(smgTimerStart, func() {
		t.started = k.wallClock()
		t.running = true
	})
}

func (k *kernel) timerStop(t *timer) {
	k.call(smgTimerStop, func() {
		if t.running {
			t.total += k.wallClock() - t.started
			t.running = false
		}
	})
}

func (k *kernel) timerReset(t *timer) {
	k.call(smgTimerReset, func() { t.total, t.running = 0, false; k.work(22) })
}

func (k *kernel) timerElapsed(t *timer) (e float64) {
	k.call(smgTimerElapsed, func() { e = t.total; k.work(20) })
	return
}

// timerMax reduces a timer across ranks (slowest rank defines the phase).
func (k *kernel) timerMax(t *timer) (e float64) {
	k.call(smgTimerMax, func() {
		e = k.m.AllreduceF64(mpi.Max, k.timerElapsed(t))
		k.work(30)
	})
	return
}

func (k *kernel) timerReport(t *timer) (line string) {
	k.call(smgTimerReport, func() {
		line = fmt.Sprintf("%s %.6f", t.name, k.timerMax(t))
		k.work(120)
	})
	return
}

// params is the benchmark's input deck.
type params struct {
	nx, ny, nz int
	maxIters   int
	tol        float64
}

func (k *kernel) defaultParams() (p params) {
	k.call(smgDefaultParams, func() {
		p = params{nx: 18, ny: 18, nz: 32, maxIters: 6, tol: 1e-6}
		k.work(60)
	})
	return
}

func (k *kernel) argLookup(name string, def int) (v int) {
	k.call(smgArgLookup, func() { v = k.c.Arg(name, def); k.work(36) })
	return
}

func (k *kernel) parseDim(p *params) {
	k.call(smgParseDim, func() {
		p.nx = k.argLookup("nx", p.nx)
		p.ny = k.argLookup("ny", p.ny)
		p.nz = k.argLookup("nz", p.nz)
	})
}

func (k *kernel) parseIters(p *params) {
	k.call(smgParseIters, func() {
		p.maxIters = k.argLookup("iters", p.maxIters)
	})
}

func (k *kernel) parseTol(p *params) {
	k.call(smgParseTol, func() {
		if t := k.argLookup("tolexp", 0); t > 0 {
			p.tol = math.Pow(10, -float64(t))
		}
		k.work(40)
	})
}

func (k *kernel) checkParams(p *params) {
	k.call(smgCheckParams, func() {
		if p.nx < 2 || p.ny < 2 || p.nz < 4 {
			panic(fmt.Sprintf("smg98: input too small: %+v", *p))
		}
		if p.maxIters < 1 {
			panic("smg98: need at least one cycle")
		}
		k.work(44)
	})
}

func (k *kernel) inputSummary(p *params) (s string) {
	k.call(smgInputSummary, func() {
		s = fmt.Sprintf("(%d x %d x %d) x %d ranks", p.nx, p.ny*k.size, p.nz, k.size)
		k.work(140)
	})
	return
}

// readInput assembles the input deck from the launch arguments.
func (k *kernel) readInput() (p params) {
	k.call(smgReadInput, func() {
		p = k.defaultParams()
		k.parseDim(&p)
		k.parseIters(&p)
		k.parseTol(&p)
		k.checkParams(&p)
	})
	return
}

// runLog is the benchmark's in-memory log.
type runLog struct {
	lines []string
}

func (k *kernel) logCreate() (lg *runLog) {
	k.call(smgLogCreate, func() { lg = &runLog{}; k.work(40) })
	return
}

func (k *kernel) logAppend(lg *runLog, line string) {
	k.call(smgLogAppend, func() {
		lg.lines = append(lg.lines, line)
		k.work(60)
	})
}

func (k *kernel) logBanner(lg *runLog, p *params) {
	k.call(smgLogBanner, func() {
		k.logAppend(lg, "SMG98 semicoarsening multigrid")
		k.logAppend(lg, k.inputSummary(p))
	})
}

func (k *kernel) logResidual(lg *runLog, it int, norm float64) {
	k.call(smgLogResidual, func() {
		k.logAppend(lg, fmt.Sprintf("cycle %d rnorm %.3e", it, norm))
	})
}

func (k *kernel) logFlush(lg *runLog) (n int) {
	k.call(smgLogFlush, func() { n = len(lg.lines); k.work(int64(20 * len(lg.lines))) })
	return
}

func (k *kernel) logClose(lg *runLog) {
	k.call(smgLogClose, func() { lg.lines = nil; k.work(24) })
}

func (k *kernel) statsInit() (st *solveStats) {
	k.call(smgStatsInit, func() { st = &solveStats{}; k.work(36) })
	return
}

// statsConvFactor is the last cycle's residual reduction factor.
func (k *kernel) statsConvFactor(st *solveStats) (f float64) {
	k.call(smgStatsConvFactor, func() {
		n := len(st.history)
		switch {
		case n >= 2 && st.history[n-2] != 0:
			f = st.history[n-1] / st.history[n-2]
		case n == 1 && st.initial != 0:
			f = st.history[0] / st.initial
		default:
			f = 0
		}
		k.work(46)
	})
	return
}

// statsAvgConvFactor is the geometric-mean reduction over the solve.
func (k *kernel) statsAvgConvFactor(st *solveStats) (f float64) {
	k.call(smgStatsAvgConvFactor, func() {
		if st.iters > 0 && st.initial > 0 && st.final > 0 {
			f = math.Pow(st.final/st.initial, 1/float64(st.iters))
		}
		k.work(60)
	})
	return
}

// normHistoryRatio is the residual-history ratio between two cycles.
func (k *kernel) normHistoryRatio(st *solveStats, a, b int) (r float64) {
	k.call(smgNormHistoryRatio, func() {
		if a >= 0 && b >= 0 && a < len(st.history) && b < len(st.history) && st.history[a] != 0 {
			r = st.history[b] / st.history[a]
		}
		k.work(36)
	})
	return
}

func (k *kernel) statsFinalize(st *solveStats, lg *runLog) {
	k.call(smgStatsFinalize, func() {
		k.logAppend(lg, fmt.Sprintf("iters %d final %.3e conv %.3f last %.3f span %.3f",
			st.iters, st.final, k.statsAvgConvFactor(st), k.statsConvFactor(st),
			k.normHistoryRatio(st, 0, len(st.history)-1)))
	})
}

func (k *kernel) reportMemory(levels []*level, lg *runLog) {
	k.call(smgReportMemory, func() {
		k.logAppend(lg, fmt.Sprintf("memory %d bytes", k.memoryEstimate(levels)))
	})
}

// commVolume totals the per-sweep ghost traffic across the hierarchy.
func (k *kernel) commVolume(levels []*level) (bytes int) {
	k.call(smgCommVolume, func() {
		for _, l := range levels {
			bytes += 2 * k.commPlaneBytes(l.pkg)
		}
		k.work(30)
	})
	return
}

func (k *kernel) reportComm(levels []*level, lg *runLog) {
	k.call(smgReportComm, func() {
		planes := 0
		for _, l := range levels {
			planes += k.boxNumPlanes(k.gridLocalExtents(l.g))
		}
		k.logAppend(lg, fmt.Sprintf("ghost %d bytes/sweep over %d planes", k.commVolume(levels), planes))
	})
}

func (k *kernel) reportTimers(ts []*timer, lg *runLog) {
	k.call(smgReportTimers, func() {
		for _, t := range ts {
			k.logAppend(lg, k.timerReport(t))
		}
	})
}

func (k *kernel) runHeader(lg *runLog) {
	k.call(smgRunHeader, func() {
		k.logAppend(lg, fmt.Sprintf("rank %d of %d", k.rank, k.size))
	})
}

func (k *kernel) finalReport(st *solveStats, lg *runLog) (lines int) {
	k.call(smgFinalReport, func() {
		k.statsFinalize(st, lg)
		lines = k.logFlush(lg)
	})
	return
}

// syncRanks is the benchmark's explicit phase barrier.
func (k *kernel) syncRanks() {
	k.call(smgSyncRanks, func() {
		k.m.Barrier()
		k.work(24)
	})
}

func (k *kernel) randSeed() (s int) {
	k.call(smgRandSeed, func() { s = 1664525*k.rank + 1013904223; k.work(30) })
	return
}

// procTopology reports the 1-D decomposition neighbours.
func (k *kernel) procTopology() (lo, hi int) {
	k.call(smgProcTopology, func() {
		lo = k.neighborRank(-1)
		hi = k.neighborRank(+1)
	})
	return
}

// loadBalanceCheck verifies every rank owns the same volume.
func (k *kernel) loadBalanceCheck(g *grid) (balanced bool) {
	k.call(smgLoadBalanceCheck, func() {
		mine := float64(k.gridVolume(g))
		max := k.globalMax(mine)
		balanced = max == mine
		k.work(40)
	})
	return
}

// flopsEstimate prices one V-cycle in floating-point operations.
func (k *kernel) flopsEstimate(levels []*level) (flops int) {
	k.call(smgFlopsEstimate, func() {
		for _, l := range levels {
			flops += 12 * k.gridVolume(l.g)
		}
		k.work(50)
	})
	return
}

// iterationBudget caps the cycle count from the input deck.
func (k *kernel) iterationBudget(p *params) (n int) {
	k.call(smgIterationBudget, func() { n = p.maxIters; k.work(20) })
	return
}

func (k *kernel) versionString() (v string) {
	k.call(smgVersionString, func() { v = "smg98-sim 1.0"; k.work(28) })
	return
}

// exitCheck synchronises and validates the final state before MPI_Finalize.
func (k *kernel) exitCheck(levels []*level) {
	k.call(smgExitCheck, func() {
		if !k.vectorCheckFinite(levels[0].x) {
			panic("smg98: non-finite solution at exit")
		}
		k.syncRanks()
	})
}

// driverMain is the benchmark's main after MPI_Init: read input, set the
// problem up, solve, and report.
func (k *kernel) driverMain() (st *solveStats) {
	k.call(smgDriverMain, func() {
		lg := k.logCreate()
		k.runHeader(lg)
		_ = k.versionString()
		_ = k.randSeed()
		p := k.readInput()
		k.logBanner(lg, &p)

		tSetup := k.timerCreate("setup")
		tSolve := k.timerCreate("solve")
		k.timerReset(tSetup)
		k.timerStart(tSetup)
		levels := k.problemSetup(p.nx, p.ny, p.nz)
		k.timerStop(tSetup)

		k.procTopology()
		k.loadBalanceCheck(levels[0].g)
		k.flopsEstimate(levels)

		k.syncRanks()
		k.timerStart(tSolve)
		st = k.solve(levels, k.iterationBudget(&p), p.tol)
		k.timerStop(tSolve)

		for _, h := range st.history {
			k.logResidual(lg, st.iters, h)
		}
		k.reportMemory(levels, lg)
		k.reportComm(levels, lg)
		k.reportTimers([]*timer{tSetup, tSolve}, lg)
		k.finalReport(st, lg)
		k.logClose(lg)
		k.exitCheck(levels)
		k.problemDestroy(levels)
	})
	return
}
