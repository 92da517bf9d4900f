package smg98

import "fmt"

// grid describes one level's local box and global extents.
type grid struct {
	local    Box
	globalNY int
	nx, ny   int
	nz       int
}

// level is one rung of the multigrid hierarchy.
type level struct {
	g   *grid
	st  *Stencil
	mat *matrix
	x   *Vector // solution / correction
	b   *Vector // right-hand side
	r   *Vector // residual
	tmp *Vector // Jacobi workspace
	pkg *commPkg
	idx int
}

func (k *kernel) gridCreate(nx, ny, nz int) (g *grid) {
	k.call(smgGridCreate, func() {
		lo := k.indexCopy(Index{0, k.rank * ny, 0})
		hi := k.indexAdd(lo, Index{nx - 1, ny - 1, nz - 1})
		g = &grid{
			local:    Box{Min: lo, Max: hi},
			globalNY: ny * k.size,
			nx:       nx, ny: ny, nz: nz,
		}
		k.work(120)
	})
	return
}

func (k *kernel) gridLocalExtents(g *grid) (b Box) {
	k.call(smgGridLocalExtents, func() { b = g.local; k.work(24) })
	return
}

func (k *kernel) gridGlobalSize(g *grid) (n int) {
	k.call(smgGridGlobalSize, func() { n = g.nx * g.globalNY * g.nz; k.work(26) })
	return
}

func (k *kernel) gridVolume(g *grid) (n int) {
	k.call(smgGridVolume, func() { n = g.nx * g.ny * g.nz; k.work(22) })
	return
}

// gridCoarsenZ builds the next (z-semicoarsened) grid.
func (k *kernel) gridCoarsenZ(g *grid) (out *grid) {
	k.call(smgGridCoarsenZ, func() {
		out = &grid{
			local:    k.boxCoarsenZ(g.local),
			globalNY: g.globalNY,
			nx:       g.nx, ny: g.ny, nz: (g.nz + 1) / 2,
		}
		k.work(60)
	})
	return
}

// gridNumLevels is the depth of the hierarchy: semicoarsen z until 2 planes.
func (k *kernel) gridNumLevels(g *grid) (n int) {
	k.call(smgGridNumLevels, func() {
		nz := g.nz
		n = 1
		for nz > 2 {
			nz = (nz + 1) / 2
			n++
		}
		k.work(40)
	})
	return
}

func (k *kernel) gridCheck(g *grid) {
	k.call(smgGridCheck, func() {
		if g.nx <= 0 || g.ny <= 0 || g.nz <= 0 {
			panic(fmt.Sprintf("smg98: bad grid %+v", g))
		}
		k.work(26)
	})
}

func (k *kernel) levelCreate(g *grid, idx int, st *Stencil) (l *level) {
	k.call(smgLevelCreate, func() {
		l = &level{g: g, st: st, idx: idx}
		l.mat = k.matrixCreate(g, st)
		k.matrixInitialize(l.mat)
		k.matrixSetConstantEntries(l.mat, st)
		k.matrixSetBoundary(l.mat)
		k.matrixAssemble(l.mat)
		k.work(80)
	})
	return
}

func (k *kernel) levelVectorsCreate(l *level) {
	k.call(smgLevelVectorsCreate, func() {
		l.x = k.vectorCreate(l.g.nx, l.g.ny, l.g.nz)
		l.b = k.vectorCreate(l.g.nx, l.g.ny, l.g.nz)
		l.r = k.vectorCreate(l.g.nx, l.g.ny, l.g.nz)
		l.tmp = k.vectorCreate(l.g.nx, l.g.ny, l.g.nz)
		k.vectorInitialize(l.x)
		k.vectorInitialize(l.b)
		k.vectorInitialize(l.r)
		k.vectorInitialize(l.tmp)
	})
}

// gridPlaneSize is the xz ghost-plane extent exchanged with neighbours.
func (k *kernel) gridPlaneSize(g *grid) (n int) {
	k.call(smgGridPlaneSize, func() { n = g.nx * g.nz; k.work(22) })
	return
}

func (k *kernel) levelCommCreate(l *level) {
	k.call(smgLevelCommCreate, func() {
		// The neighbour ghost regions are the local box shifted one cell
		// across each Y face.
		ext := k.gridLocalExtents(l.g)
		loGhost := k.boxShiftNeg(k.boxPlane(ext, 0), 1, 1)
		hiGhost := k.boxShiftPos(k.boxPlane(ext, 0), 1, 1)
		k.boxCheck(loGhost)
		k.boxCheck(hiGhost)
		if k.gridPlaneSize(l.g) != l.g.nx*l.g.nz {
			panic("smg98: plane size mismatch")
		}
		l.pkg = k.commPkgCreate(l.g.nx, l.g.nz)
	})
}

func (k *kernel) levelDestroy(l *level) {
	k.call(smgLevelDestroy, func() {
		k.commPkgDestroy(l.pkg)
		k.matrixDestroy(l.mat)
		l.x, l.b, l.r, l.tmp = nil, nil, nil, nil
		k.work(50)
	})
}

// setupStencils builds the per-level operators from the finest 7-point
// Laplacian by repeated semicoarsening.
func (k *kernel) setupStencils(n int) (sts []*Stencil) {
	k.call(smgSetupStencils, func() {
		st := k.stencilCreate(-6, 1, 1)
		if !k.stencilCheck(st) {
			panic("smg98: bad fine-grid stencil")
		}
		sts = append(sts, st)
		for i := 1; i < n; i++ {
			st = k.stencilCoarsenZ(st)
			sts = append(sts, st)
		}
		k.work(60)
	})
	return
}

// interpWeightAt gives the linear z-interpolation weight for parity p.
func (k *kernel) interpWeightAt(p int) (w float64) {
	k.call(smgInterpWeightAt, func() {
		if p == 0 {
			w = 1.0
		} else {
			w = 0.5
		}
		k.work(22)
	})
	return
}

// restrictWeightAt gives the full-weighting z coefficient at offset d.
func (k *kernel) restrictWeightAt(d int) (w float64) {
	k.call(smgRestrictWeightAt, func() {
		if d == 0 {
			w = 0.5
		} else {
			w = 0.25
		}
		k.work(22)
	})
	return
}

// setupInterp precomputes the interpolation weights for a level.
func (k *kernel) setupInterp(l *level) (weights [2]float64) {
	k.call(smgSetupInterp, func() {
		weights[0] = k.interpWeightAt(0)
		weights[1] = k.interpWeightAt(1)
		k.work(30)
	})
	return
}

// setupRestrict precomputes the restriction weights for a level.
func (k *kernel) setupRestrict(l *level) (weights [2]float64) {
	k.call(smgSetupRestrict, func() {
		weights[0] = k.restrictWeightAt(0)
		weights[1] = k.restrictWeightAt(1)
		k.work(30)
	})
	return
}

// setupRAP attaches the coarse operator to level l+1 (semicoarsened
// Galerkin analogue).
func (k *kernel) setupRAP(fine, coarse *level) {
	k.call(smgSetupRAP, func() {
		coarse.mat = k.matrixCoarsen(fine.mat, coarse.g)
		coarse.st = k.matrixStencil(coarse.mat)
		k.work(80)
	})
}

// setupRHS fills the finest right-hand side with a deterministic source.
func (k *kernel) setupRHS(l *level) {
	k.call(smgSetupRHS, func() {
		k.vectorSetSeeded(l.b, k.rank*7919+11)
		k.vectorScale(l.b, 1.0/float64(k.gridGlobalSize(l.g)))
	})
}

// setupInitialGuess seeds the finest solution vector with noise plus a
// fraction of the source.
func (k *kernel) setupInitialGuess(l *level) {
	k.call(smgSetupInitialGuess, func() {
		k.vectorSetSeeded(l.x, k.rank*104729+3)
		k.vectorAxpy(l.x, 0.1, l.b)
	})
}

func (k *kernel) setupWorkspace(l *level) {
	k.call(smgSetupWorkspace, func() {
		k.vectorSetConstant(l.tmp, 0)
		k.vectorGhostClear(l.x)
	})
}

// setupBoundary imposes homogeneous Dirichlet conditions (ghosts zeroed)
// over the grown ghost region.
func (k *kernel) setupBoundary(l *level) {
	k.call(smgSetupBoundary, func() {
		ext := k.gridLocalExtents(l.g)
		ghost := k.boxGrow(ext, 1)
		k.boxCheck(ghost)
		interior := k.boxShrink(ext, 1)
		k.boxCheck(interior)
		k.vectorGhostClear(l.x)
		k.vectorGhostClear(l.b)
	})
}

func (k *kernel) partitionGrid(nx, ny, nz int) (ok bool) {
	k.call(smgPartitionGrid, func() {
		ok = nx > 0 && ny > 0 && nz >= 4
		k.work(90)
	})
	return
}

func (k *kernel) validatePartition(g *grid) {
	k.call(smgValidatePartition, func() {
		local := k.gridLocalExtents(g)
		if k.boxVolume(local) != k.gridVolume(g) {
			panic("smg98: partition volume mismatch")
		}
		global := k.boxCreate(Index{0, 0, 0}, Index{g.nx - 1, g.globalNY - 1, g.nz - 1})
		inter, ok := k.boxIntersect(local, global)
		if !ok || !k.indexEqual(inter.Min, local.Min) || !k.indexEqual(inter.Max, local.Max) {
			panic("smg98: local box escapes the global domain")
		}
		lo := k.indexMax(local.Min, global.Min)
		hi := k.indexMin(local.Max, global.Max)
		if !k.boxContains(global, lo) || !k.boxContains(global, hi) {
			panic("smg98: clamped extents outside the domain")
		}
	})
}

func (k *kernel) dataSize(levels []*level) (words int) {
	k.call(smgDataSize, func() {
		for _, l := range levels {
			words += 4 * k.vectorVolume(l.x)
		}
		k.work(40)
	})
	return
}

func (k *kernel) memoryEstimate(levels []*level) (bytes int) {
	k.call(smgMemoryEstimate, func() {
		bytes = 8 * k.dataSize(levels)
		k.work(30)
	})
	return
}

// hierarchyCreate builds the full multigrid hierarchy.
func (k *kernel) hierarchyCreate(nx, ny, nz int) (levels []*level) {
	k.call(smgHierarchyCreate, func() {
		if !k.partitionGrid(nx, ny, nz) {
			panic("smg98: invalid partition")
		}
		g := k.gridCreate(nx, ny, nz)
		k.gridCheck(g)
		k.validatePartition(g)
		n := k.gridNumLevels(g)
		sts := k.setupStencils(n)
		for i := 0; i < n; i++ {
			l := k.levelCreate(g, i, sts[i])
			k.levelVectorsCreate(l)
			k.levelCommCreate(l)
			levels = append(levels, l)
			if i+1 < n {
				g = k.gridCoarsenZ(g)
			}
		}
		for i := 0; i+1 < n; i++ {
			k.setupRAP(levels[i], levels[i+1])
			k.setupInterp(levels[i])
			k.setupRestrict(levels[i])
		}
	})
	return
}

// initCoefficients scales operators for the problem's diffusion constant
// (unit here, but the copy/scale path is exercised as the benchmark does).
func (k *kernel) initCoefficients(levels []*level) {
	k.call(smgInitCoefficients, func() {
		for _, l := range levels {
			if k.stencilSize(l.st) != 7 {
				panic("smg98: unexpected stencil size")
			}
			scaled := k.matrixCopy(l.mat)
			k.matrixScale(scaled, 1.0)
			k.matrixDestroy(scaled)
		}
		k.work(60)
	})
}

// checkSetup validates the constructed hierarchy.
func (k *kernel) checkSetup(levels []*level) {
	k.call(smgCheckSetup, func() {
		if len(levels) == 0 {
			panic("smg98: empty hierarchy")
		}
		for _, l := range levels {
			if !k.stencilCheck(l.st) {
				panic(fmt.Sprintf("smg98: bad stencil on level %d", l.idx))
			}
			k.matrixCheck(l.mat)
		}
		fine := levels[0]
		if k.matrixFrobenius(fine.mat) <= 0 {
			panic("smg98: vanishing operator")
		}
		if k.matrixConditionEstimate(fine.mat) <= 0 {
			panic("smg98: bad condition estimate")
		}
		if k.matrixEntryCount(fine.mat) <= 0 {
			panic("smg98: empty operator")
		}
		k.work(50)
	})
}

// finalizeSetup completes the setup phase with a world synchronisation.
func (k *kernel) finalizeSetup(levels []*level) {
	k.call(smgFinalizeSetup, func() {
		k.memoryEstimate(levels)
		k.m.Barrier()
		k.work(40)
	})
}

// problemSetup is the whole setup phase: hierarchy, RHS, guess, boundary.
func (k *kernel) problemSetup(nx, ny, nz int) (levels []*level) {
	k.call(smgProblemSetup, func() {
		levels = k.hierarchyCreate(nx, ny, nz)
		k.initCoefficients(levels)
		k.setupRHS(levels[0])
		k.setupInitialGuess(levels[0])
		for _, l := range levels {
			k.setupWorkspace(l)
			k.setupBoundary(l)
		}
		k.checkSetup(levels)
		k.finalizeSetup(levels)
	})
	return
}

// problemDestroy tears the hierarchy down.
func (k *kernel) problemDestroy(levels []*level) {
	k.call(smgProblemDestroy, func() {
		for _, l := range levels {
			k.levelDestroy(l)
		}
		k.work(40)
	})
}
