package smg98

// Stencil is the 7-point operator of one multigrid level: a center
// coefficient, an xy-plane coupling and a z coupling (the semicoarsened
// dimension's coupling weakens level by level).
type Stencil struct {
	center float64
	cxy    float64
	cz     float64
}

func (k *kernel) stencilCreate(center, cxy, cz float64) (st *Stencil) {
	k.call(smgStencilCreate, func() {
		st = &Stencil{center: center, cxy: cxy, cz: cz}
		k.work(48)
	})
	return
}

func (k *kernel) stencilSize(st *Stencil) (n int) {
	k.call(smgStencilSize, func() { n = 7; k.work(18) })
	return
}

// stencilOffset returns the grid offset of stencil entry e.
func (k *kernel) stencilOffset(e int) (off Index) {
	k.call(smgStencilOffset, func() {
		offsets := [7]Index{
			{0, 0, 0}, {-1, 0, 0}, {1, 0, 0},
			{0, -1, 0}, {0, 1, 0}, {0, 0, -1}, {0, 0, 1},
		}
		off = offsets[e%7]
		k.work(26)
	})
	return
}

func (k *kernel) stencilCoeffCenter(st *Stencil) (c float64) {
	k.call(smgStencilCoeffCenter, func() { c = st.center; k.work(18) })
	return
}

func (k *kernel) stencilCoeffXY(st *Stencil) (c float64) {
	k.call(smgStencilCoeffXY, func() { c = st.cxy; k.work(18) })
	return
}

func (k *kernel) stencilCoeffZ(st *Stencil) (c float64) {
	k.call(smgStencilCoeffZ, func() { c = st.cz; k.work(18) })
	return
}

func (k *kernel) stencilDiagonal(st *Stencil) (d float64) {
	k.call(smgStencilDiagonal, func() { d = st.center; k.work(20) })
	return
}

// stencilCoarsenZ derives the coarse-level operator from a fine one — the
// semicoarsening analogue of the Galerkin product: z coupling halves,
// center rebalances.
func (k *kernel) stencilCoarsenZ(st *Stencil) (out *Stencil) {
	k.call(smgStencilCoarsenZ, func() {
		cz := st.cz / 2
		out = &Stencil{
			center: -(4*st.cxy + 2*cz),
			cxy:    st.cxy,
			cz:     cz,
		}
		k.work(64)
	})
	return
}

// stencilApplyPlane computes out(plane kz) = A x restricted to plane kz.
func (k *kernel) stencilApplyPlane(st *Stencil, out, x *Vector, kz int) {
	k.call(smgStencilApplyPlane, func() {
		xd, od := x.data, out.data
		center, cxy, cz := st.center, st.cxy, st.cz
		for j := 0; j < x.ny; j++ {
			ob := out.off(0, j, kz)
			// Row bases hoisted; the float expression keeps the exact shape
			// of the per-cell At form, so results are bit-identical.
			xr := x.off(0, j, kz)
			xs := x.off(0, j-1, kz)
			xn := x.off(0, j+1, kz)
			xl := x.off(0, j, kz-1)
			xu := x.off(0, j, kz+1)
			for i := 0; i < x.nx; i++ {
				od[ob+i] = center*xd[xr+i] +
					cxy*(xd[xr+i-1]+xd[xr+i+1]+
						xd[xs+i]+xd[xn+i]) +
					cz*(xd[xl+i]+xd[xu+i])
			}
		}
		k.work(int64(11 * x.nx * x.ny))
	})
}

// stencilCheck validates operator sanity (diagonal dominance sign).
func (k *kernel) stencilCheck(st *Stencil) (ok bool) {
	k.call(smgStencilCheck, func() {
		ok = st.center < 0 && st.cxy > 0 && st.cz >= 0
		k.work(26)
	})
	return
}
