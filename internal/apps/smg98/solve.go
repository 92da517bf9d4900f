package smg98

import "math"

// relaxWeight is the damped-Jacobi weight per level (slightly stronger
// damping on coarse levels).
func (k *kernel) relaxWeight(l *level) (w float64) {
	k.call(smgRelaxWeight, func() {
		w = 0.8
		if l.idx > 0 {
			w = 0.7
		}
		k.work(24)
	})
	return
}

// planeBoxAt computes the xy-plane box of level l at z index kz.
func (k *kernel) planeBoxAt(l *level, kz int) (b Box) {
	k.call(smgPlaneBoxAt, func() {
		min := k.indexShift(Index{0, 0, 0}, 2, kz)
		full := k.boxCreate(min, Index{l.g.nx - 1, l.g.ny - 1, l.g.nz - 1})
		b = k.boxPlane(full, 0)
	})
	return
}

// planeOffsets derives the neighbour offsets used by a plane update.
func (k *kernel) planeOffsets() (offs [6]Index) {
	k.call(smgPlaneOffsets, func() {
		for e := 1; e < 7; e++ {
			offs[e-1] = k.stencilOffset(e)
		}
	})
	return
}

// planeCoeffs loads the stencil coefficients for a plane sweep.
func (k *kernel) planeCoeffs(l *level) (center, cxy, cz float64) {
	k.call(smgPlaneCoeffs, func() {
		center = k.stencilCoeffCenter(l.st)
		cxy = k.stencilCoeffXY(l.st)
		cz = k.stencilCoeffZ(l.st)
	})
	return
}

// relaxPlaneInterior is the hot damped-Jacobi update of one plane's
// interior points, writing into tmp.
func (k *kernel) relaxPlaneInterior(l *level, kz int, w, center, cxy, cz float64) {
	k.call(smgRelaxPlaneInterior, func() {
		x, b, tmp := l.x, l.b, l.tmp
		xd, bd, td := x.data, b.data, tmp.data
		inv := 1.0 / center
		for j := 1; j < x.ny-1; j++ {
			// Row bases hoisted out of the cell loop; the float expression
			// keeps the exact shape of the per-cell At form, so results are
			// bit-identical.
			xr := x.off(0, j, kz)
			xs := x.off(0, j-1, kz)
			xn := x.off(0, j+1, kz)
			xl := x.off(0, j, kz-1)
			xu := x.off(0, j, kz+1)
			br := b.off(0, j, kz)
			tr := tmp.off(0, j, kz)
			for i := 1; i < x.nx-1; i++ {
				sum := cxy*(xd[xr+i-1]+xd[xr+i+1]+xd[xs+i]+xd[xn+i]) +
					cz*(xd[xl+i]+xd[xu+i])
				xnew := (bd[br+i] - sum) * inv
				td[tr+i] = (1-w)*xd[xr+i] + w*xnew
			}
		}
		k.work(int64(14 * (x.nx - 2) * (x.ny - 2)))
	})
}

// relaxPlaneBoundary updates the plane's x and y edge points (which touch
// domain boundary or ghost values).
func (k *kernel) relaxPlaneBoundary(l *level, kz int, w, center, cxy, cz float64) {
	k.call(smgRelaxPlaneBoundary, func() {
		x, b, tmp := l.x, l.b, l.tmp
		inv := 1.0 / center
		update := func(i, j int) {
			sum := cxy*(x.At(i-1, j, kz)+x.At(i+1, j, kz)+x.At(i, j-1, kz)+x.At(i, j+1, kz)) +
				cz*(x.At(i, j, kz-1)+x.At(i, j, kz+1))
			xnew := (b.At(i, j, kz) - sum) * inv
			tmp.Set(i, j, kz, (1-w)*x.At(i, j, kz)+w*xnew)
		}
		for i := 0; i < x.nx; i++ {
			update(i, 0)
			update(i, x.ny-1)
		}
		for j := 1; j < x.ny-1; j++ {
			update(0, j)
			update(x.nx-1, j)
		}
		k.work(int64(18 * (x.nx + x.ny)))
	})
}

// updateSolutionPlane commits a relaxed plane from tmp back into x.
func (k *kernel) updateSolutionPlane(l *level, kz int) {
	k.call(smgUpdateSolutionPlane, func() {
		k.vectorPlaneCopy(l.x, l.tmp, kz)
	})
}

// applyBCPlane enforces the Dirichlet condition on a plane's rim (the
// ghost cells outside the global domain stay zero).
func (k *kernel) applyBCPlane(l *level, kz int) {
	k.call(smgApplyBCPlane, func() {
		x := l.x
		if k.rank == 0 {
			for i := -1; i <= x.nx; i++ {
				x.Set(i, -1, kz, 0)
			}
		}
		if k.rank == k.size-1 {
			for i := -1; i <= x.nx; i++ {
				x.Set(i, x.ny, kz, 0)
			}
		}
		k.work(int64(x.nx / 2))
	})
}

// relaxPlane relaxes one z-plane: coefficients, interior, boundary, commit.
func (k *kernel) relaxPlane(l *level, kz int, w float64) {
	k.call(smgRelaxPlane, func() {
		pb := k.planeBoxAt(l, kz)
		k.boxCheck(pb)
		center, cxy, cz := k.planeCoeffs(l)
		k.applyBCPlane(l, kz)
		k.vectorPlaneClear(l.tmp, kz)
		k.relaxPlaneInterior(l, kz, w, center, cxy, cz)
		k.relaxPlaneBoundary(l, kz, w, center, cxy, cz)
		k.updateSolutionPlane(l, kz)
	})
}

// relaxSweep performs one plane-by-plane damped-Jacobi sweep with a fresh
// ghost exchange.
func (k *kernel) relaxSweep(l *level) {
	k.call(smgRelaxSweep, func() {
		k.exchangeGhost(l.pkg, l.x)
		w := k.relaxWeight(l)
		planes := k.boxNumPlanes(k.gridLocalExtents(l.g))
		for kz := 0; kz < planes; kz++ {
			k.relaxPlane(l, kz, w)
		}
	})
}

// relax performs n relaxation sweeps on a level.
func (k *kernel) relax(l *level, sweeps int) {
	k.call(smgRelax, func() {
		for s := 0; s < sweeps; s++ {
			k.relaxSweep(l)
		}
	})
}

// preRelax and postRelax are the down- and up-cycle smoother stages.
func (k *kernel) preRelax(l *level) {
	k.call(smgPreRelax, func() { k.relax(l, 1) })
}

func (k *kernel) postRelax(l *level) {
	k.call(smgPostRelax, func() { k.relax(l, 1) })
}

// residualPlane computes r = b - A x on one plane.
func (k *kernel) residualPlane(l *level, kz int) {
	k.call(smgResidualPlane, func() {
		k.matrixApplyPlane(l.mat, l.r, l.x, kz)
		x, b, r := l.x, l.b, l.r
		for j := 0; j < x.ny; j++ {
			rb := r.off(0, j, kz)
			bb := b.off(0, j, kz)
			for i := 0; i < x.nx; i++ {
				r.data[rb+i] = b.data[bb+i] - r.data[rb+i]
			}
		}
		k.work(int64(x.nx * x.ny / 2))
	})
}

// residual computes the full residual with current ghosts.
func (k *kernel) residual(l *level) {
	k.call(smgResidual, func() {
		k.exchangeGhost(l.pkg, l.x)
		_ = k.planeOffsets()
		for kz := 0; kz < l.g.nz; kz++ {
			k.residualPlane(l, kz)
		}
	})
}

// residualNorm is the global L2 norm of the current residual.
func (k *kernel) residualNorm(l *level) (n float64) {
	k.call(smgResidualNorm, func() {
		k.residual(l)
		n = k.vectorNorm(l.r)
	})
	return
}

// zeroCoarse clears a coarse level's solution before the correction solve.
func (k *kernel) zeroCoarse(l *level) {
	k.call(smgZeroCoarse, func() {
		k.vectorClear(l.x)
	})
}

// restrictPlane full-weights fine residual planes 2kz-1..2kz+1 into the
// coarse right-hand side plane kz.
func (k *kernel) restrictPlane(fine, coarse *level, kz int) {
	k.call(smgRestrictPlane, func() {
		w0 := k.restrictWeightAt(0)
		w1 := k.restrictWeightAt(1)
		fz := 2 * kz
		r, cb := fine.r, coarse.b
		rd, cd := r.data, cb.data
		below, above := fz-1 >= 0, fz+1 < fine.g.nz
		for j := 0; j < cb.ny; j++ {
			r0 := r.off(0, j, fz)
			rm := r.off(0, j, fz-1)
			rp := r.off(0, j, fz+1)
			cr := cb.off(0, j, kz)
			for i := 0; i < cb.nx; i++ {
				v := w0 * rd[r0+i]
				if below {
					v += w1 * rd[rm+i]
				}
				if above {
					v += w1 * rd[rp+i]
				}
				cd[cr+i] = v
			}
		}
		k.work(int64(9 * cb.nx * cb.ny))
	})
}

// restrictResidual moves the fine residual down one level.
func (k *kernel) restrictResidual(fine, coarse *level) {
	k.call(smgRestrict, func() {
		for kz := 0; kz < coarse.g.nz; kz++ {
			k.restrictPlane(fine, coarse, kz)
		}
		k.zeroCoarse(coarse)
	})
}

// interpPlaneEven adds the coarse correction directly at even fine planes.
func (k *kernel) interpPlaneEven(fine, coarse *level, kz int) {
	k.call(smgInterpPlaneEven, func() {
		w := k.interpWeightAt(0)
		cx, fx := coarse.x, fine.x
		cd, fd := cx.data, fx.data
		for j := 0; j < fx.ny; j++ {
			fr := fx.off(0, j, 2*kz)
			cr := cx.off(0, j, kz)
			for i := 0; i < fx.nx; i++ {
				fd[fr+i] += w * cd[cr+i]
			}
		}
		k.work(int64(7 * fx.nx * fx.ny))
	})
}

// interpPlaneOdd interpolates between coarse planes at odd fine planes.
func (k *kernel) interpPlaneOdd(fine, coarse *level, kz int) {
	k.call(smgInterpPlaneOdd, func() {
		w := k.interpWeightAt(1)
		cx, fx := coarse.x, fine.x
		fz := 2*kz + 1
		if fz >= fine.g.nz {
			return
		}
		cd, fd := cx.data, fx.data
		above := kz+1 < coarse.g.nz
		for j := 0; j < fx.ny; j++ {
			c0 := cx.off(0, j, kz)
			c1 := cx.off(0, j, kz+1)
			fr := fx.off(0, j, fz)
			for i := 0; i < fx.nx; i++ {
				v := w * cd[c0+i]
				if above {
					v += w * cd[c1+i]
				}
				fd[fr+i] += v
			}
		}
		k.work(int64(7 * fx.nx * fx.ny))
	})
}

// interpAdd prolongates the coarse correction into the fine solution.
func (k *kernel) interpAdd(fine, coarse *level) {
	k.call(smgInterpAdd, func() {
		refined := k.boxRefineZ(k.gridLocalExtents(coarse.g))
		k.boxCheck(refined)
		for kz := 0; kz < coarse.g.nz; kz++ {
			k.interpPlaneEven(fine, coarse, kz)
			k.interpPlaneOdd(fine, coarse, kz)
		}
	})
}

// coarseSolve iterates the smoother on the coarsest level until its local
// system is well resolved.
func (k *kernel) coarseSolve(l *level) {
	k.call(smgCoarseSolve, func() {
		k.relax(l, 4)
		// Norm and plane-energy checks keep the coarse solve honest.
		_ = k.vectorInnerProd(l.x, l.x)
		_ = k.vectorPlaneDot(l.x, l.x, 0)
	})
}

// levelDown moves the state from level i to i+1 during the down-cycle.
func (k *kernel) levelDown(levels []*level, i int) {
	k.call(smgLevelDown, func() {
		k.preRelax(levels[i])
		k.residual(levels[i])
		k.restrictResidual(levels[i], levels[i+1])
	})
}

// levelUp applies the correction from level i+1 back at level i.
func (k *kernel) levelUp(levels []*level, i int) {
	k.call(smgLevelUp, func() {
		k.interpAdd(levels[i], levels[i+1])
		k.postRelax(levels[i])
	})
}

// cycleDown is the descending half of the V-cycle.
func (k *kernel) cycleDown(levels []*level) {
	k.call(smgCycleDown, func() {
		for i := 0; i+1 < len(levels); i++ {
			k.levelDown(levels, i)
		}
	})
}

// cycleUp is the ascending half of the V-cycle.
func (k *kernel) cycleUp(levels []*level) {
	k.call(smgCycleUp, func() {
		for i := len(levels) - 2; i >= 0; i-- {
			k.levelUp(levels, i)
		}
	})
}

// vCycle is one full multigrid V-cycle.
func (k *kernel) vCycle(levels []*level) {
	k.call(smgVCycle, func() {
		k.cycleDown(levels)
		k.coarseSolve(levels[len(levels)-1])
		k.cycleUp(levels)
	})
}

// convergenceCheck compares the residual norm against the target.
func (k *kernel) convergenceCheck(norm, norm0, tol float64) (done bool) {
	k.call(smgConvergenceCheck, func() {
		done = norm <= tol*norm0 || norm == 0 || math.IsNaN(norm)
		k.work(30)
	})
	return
}

// iterationUpdate advances the solver's iteration state.
func (k *kernel) iterationUpdate(it *int) {
	k.call(smgIterationUpdate, func() { *it++; k.work(20) })
}

// logIteration records a cycle's residual in the norm history.
func (k *kernel) logIteration(st *solveStats, it int, norm float64) {
	k.call(smgLogIteration, func() {
		st.history = append(st.history, norm)
		k.work(40)
	})
}

// errorEstimate derives a cheap max-norm error indicator: the residual
// scaled by the diagonal, with the boundary plane double-weighted.
func (k *kernel) errorEstimate(l *level) (e float64) {
	k.call(smgErrorEstimate, func() {
		k.vectorCopy(l.tmp, l.r)
		k.vectorPlaneAxpy(l.tmp, 1.0, l.r, 0)
		k.vectorScale(l.tmp, 1.0/6.0)
		e = k.vectorMaxAbs(l.tmp)
	})
	return
}

// solveStats collects per-solve statistics.
type solveStats struct {
	iters   int
	history []float64
	final   float64
	initial float64
}

// solve runs V-cycles until convergence or maxIters — the solver phase
// whose functions make up the paper's 62-function subset.
func (k *kernel) solve(levels []*level, maxIters int, tol float64) (st *solveStats) {
	k.call(smgSolve, func() {
		st = k.statsInit()
		fine := levels[0]
		st.initial = k.residualNorm(fine)
		norm := st.initial
		for st.iters < maxIters && !k.convergenceCheck(norm, st.initial, tol) {
			k.vCycle(levels)
			if !k.vectorCheckFinite(fine.x) {
				panic("smg98: solution blew up")
			}
			norm = k.residualNorm(fine)
			k.iterationUpdate(&st.iters)
			k.logIteration(st, st.iters, norm)
		}
		st.final = norm
		k.errorEstimate(fine)
	})
	return
}
