package smg98

import "math"

// matrix is a structured-grid operator: a constant-stencil matrix over a
// level's grid (hypre's StructMatrix specialised to the SMG operator).
type matrix struct {
	st        *Stencil
	g         *grid
	assembled bool
	boundary  bool
}

func (k *kernel) matrixCreate(g *grid, st *Stencil) (m *matrix) {
	k.call(smgMatrixCreate, func() {
		m = &matrix{st: st, g: g}
		k.work(90)
	})
	return
}

func (k *kernel) matrixInitialize(m *matrix) {
	k.call(smgMatrixInitialize, func() {
		m.assembled = false
		k.work(60)
	})
}

// matrixSetConstantEntries installs the stencil coefficients.
func (k *kernel) matrixSetConstantEntries(m *matrix, st *Stencil) {
	k.call(smgMatrixSetConstantEntries, func() {
		m.st = st
		k.work(70)
	})
}

func (k *kernel) matrixSetBoundary(m *matrix) {
	k.call(smgMatrixSetBoundary, func() {
		m.boundary = true
		k.work(50)
	})
}

func (k *kernel) matrixAssemble(m *matrix) {
	k.call(smgMatrixAssemble, func() {
		if m.st == nil {
			panic("smg98: assembling matrix without entries")
		}
		m.assembled = true
		k.work(140)
	})
}

func (k *kernel) matrixGrid(m *matrix) (g *grid) {
	k.call(smgMatrixGrid, func() { g = m.g; k.work(18) })
	return
}

func (k *kernel) matrixStencil(m *matrix) (st *Stencil) {
	k.call(smgMatrixStencil, func() { st = m.st; k.work(18) })
	return
}

func (k *kernel) matrixNumGhost(m *matrix) (n int) {
	k.call(smgMatrixNumGhost, func() { n = 1; k.work(18) })
	return
}

func (k *kernel) matrixVolume(m *matrix) (n int) {
	k.call(smgMatrixVolume, func() {
		n = k.stencilSize(k.matrixStencil(m)) * k.gridVolume(k.matrixGrid(m))
		k.work(24)
	})
	return
}

func (k *kernel) matrixEntryCount(m *matrix) (n int) {
	k.call(smgMatrixEntryCount, func() { n = k.matrixVolume(m); k.work(18) })
	return
}

// matrixDiagonal exposes the operator's diagonal coefficient.
func (k *kernel) matrixDiagonal(m *matrix) (d float64) {
	k.call(smgMatrixDiagonal, func() { d = k.stencilDiagonal(m.st); k.work(20) })
	return
}

// matrixApplyPlane applies the operator on one plane: out = A x |_kz.
func (k *kernel) matrixApplyPlane(m *matrix, out, x *Vector, kz int) {
	k.call(smgMatrixApplyPlane, func() {
		k.stencilApplyPlane(m.st, out, x, kz)
	})
}

// matrixRowSumPlane sums one plane's stencil rows — a setup-time sanity
// quantity (row sums vanish for a pure Laplacian away from boundaries).
func (k *kernel) matrixRowSumPlane(m *matrix, kz int) (sum float64) {
	k.call(smgMatrixRowSumPlane, func() {
		per := m.st.center + 4*m.st.cxy + 2*m.st.cz
		sum = per * float64(m.g.nx*m.g.ny)
		k.work(48)
	})
	return
}

// matrixSymmetryCheck verifies the constant-stencil operator is symmetric
// (trivially true here, but the benchmark checks anyway).
func (k *kernel) matrixSymmetryCheck(m *matrix) (ok bool) {
	k.call(smgMatrixSymmetryCheck, func() {
		ok = m.st.cxy == m.st.cxy && m.st.cz == m.st.cz
		k.work(60)
	})
	return
}

func (k *kernel) matrixFrobeniusLocal(m *matrix) (f float64) {
	k.call(smgMatrixFrobeniusLocal, func() {
		per := m.st.center*m.st.center + 4*m.st.cxy*m.st.cxy + 2*m.st.cz*m.st.cz
		f = per * float64(k.gridVolume(m.g))
		k.work(80)
	})
	return
}

// matrixFrobenius is the global Frobenius norm of the operator.
func (k *kernel) matrixFrobenius(m *matrix) (f float64) {
	k.call(smgMatrixFrobenius, func() {
		f = math.Sqrt(k.globalSum(k.matrixFrobeniusLocal(m)))
		k.work(40)
	})
	return
}

// matrixConditionEstimate is a crude diagonal-based condition estimate.
func (k *kernel) matrixConditionEstimate(m *matrix) (c float64) {
	k.call(smgMatrixConditionEstimate, func() {
		d := math.Abs(k.matrixDiagonal(m))
		off := 4*m.st.cxy + 2*m.st.cz
		c = (d + off) / math.Max(d-off, 1e-12)
		k.work(60)
	})
	return
}

func (k *kernel) matrixScale(m *matrix, a float64) {
	k.call(smgMatrixScale, func() {
		m.st = &Stencil{center: m.st.center * a, cxy: m.st.cxy * a, cz: m.st.cz * a}
		k.work(44)
	})
}

func (k *kernel) matrixCopy(m *matrix) (out *matrix) {
	k.call(smgMatrixCopy, func() {
		st := *m.st
		out = &matrix{st: &st, g: m.g, assembled: m.assembled, boundary: m.boundary}
		k.work(70)
	})
	return
}

// matrixCoarsen builds the next level's assembled operator.
func (k *kernel) matrixCoarsen(m *matrix, cg *grid) (out *matrix) {
	k.call(smgMatrixCoarsen, func() {
		out = k.matrixCreate(cg, k.stencilCoarsenZ(m.st))
		k.matrixInitialize(out)
		k.matrixAssemble(out)
		k.work(60)
	})
	return
}

func (k *kernel) matrixDestroy(m *matrix) {
	k.call(smgMatrixDestroy, func() {
		m.st, m.g = nil, nil
		k.work(36)
	})
}

// matrixCheck runs the assembled-operator validation suite.
func (k *kernel) matrixCheck(m *matrix) {
	k.call(smgMatrixCheck, func() {
		if !m.assembled {
			panic("smg98: matrix used before assembly")
		}
		if !k.matrixSymmetryCheck(m) {
			panic("smg98: asymmetric operator")
		}
		if k.matrixNumGhost(m) != 1 {
			panic("smg98: unexpected ghost width")
		}
		_ = k.matrixRowSumPlane(m, 0)
		k.work(40)
	})
}
