package smg98

import (
	"math"
)

// Vector is a structured-grid vector over a rank's local box, stored with
// a one-cell ghost shell on all sides.
type Vector struct {
	nx, ny, nz int
	sx, sy     int // strides
	data       []float64
}

// off maps local coordinates (allowing -1..n ghost range) to storage.
func (v *Vector) off(i, j, kz int) int {
	return (kz+1)*v.sy + (j+1)*v.sx + (i + 1)
}

// At reads a cell (ghosts allowed).
func (v *Vector) At(i, j, kz int) float64 { return v.data[v.off(i, j, kz)] }

// Set writes a cell (ghosts allowed).
func (v *Vector) Set(i, j, kz int, x float64) { v.data[v.off(i, j, kz)] = x }

func (k *kernel) vectorCreate(nx, ny, nz int) (v *Vector) {
	k.call(smgVectorCreate, func() {
		v = &Vector{
			nx: nx, ny: ny, nz: nz,
			sx: nx + 2, sy: (nx + 2) * (ny + 2),
			data: make([]float64, (nx+2)*(ny+2)*(nz+2)),
		}
		k.work(200)
	})
	return
}

func (k *kernel) vectorInitialize(v *Vector) {
	k.call(smgVectorInitialize, func() {
		for i := range v.data {
			v.data[i] = 0
		}
		k.work(int64(len(v.data) / 8))
	})
}

func (k *kernel) vectorSetConstant(v *Vector, x float64) {
	k.call(smgVectorSetConstant, func() {
		for kz := 0; kz < v.nz; kz++ {
			for j := 0; j < v.ny; j++ {
				base := v.off(0, j, kz)
				for i := 0; i < v.nx; i++ {
					v.data[base+i] = x
				}
			}
		}
		k.work(int64(v.nx * v.ny * v.nz / 4))
	})
}

func (k *kernel) vectorCopy(dst, src *Vector) {
	k.call(smgVectorCopy, func() {
		copy(dst.data, src.data)
		k.work(int64(len(src.data) / 4))
	})
}

func (k *kernel) vectorClear(v *Vector) {
	k.call(smgVectorClear, func() {
		for i := range v.data {
			v.data[i] = 0
		}
		k.work(int64(len(v.data) / 8))
	})
}

func (k *kernel) vectorScale(v *Vector, a float64) {
	k.call(smgVectorScale, func() {
		for i := range v.data {
			v.data[i] *= a
		}
		k.work(int64(len(v.data) / 2))
	})
}

func (k *kernel) vectorAxpy(y *Vector, a float64, x *Vector) {
	k.call(smgVectorAxpy, func() {
		for i := range y.data {
			y.data[i] += a * x.data[i]
		}
		k.work(int64(len(y.data)))
	})
}

func (k *kernel) vectorLocalDot(a, b *Vector) (dot float64) {
	k.call(smgVectorLocalDot, func() {
		for kz := 0; kz < a.nz; kz++ {
			for j := 0; j < a.ny; j++ {
				base := a.off(0, j, kz)
				for i := 0; i < a.nx; i++ {
					dot += a.data[base+i] * b.data[base+i]
				}
			}
		}
		k.work(int64(a.nx * a.ny * a.nz))
	})
	return
}

// vectorInnerProd is a global inner product: local dot plus an Allreduce.
func (k *kernel) vectorInnerProd(a, b *Vector) (dot float64) {
	k.call(smgVectorInnerProd, func() {
		local := k.vectorLocalDot(a, b)
		dot = k.globalSum(local)
	})
	return
}

func (k *kernel) vectorLocalMaxAbs(v *Vector) (m float64) {
	k.call(smgVectorLocalMaxAbs, func() {
		for kz := 0; kz < v.nz; kz++ {
			for j := 0; j < v.ny; j++ {
				base := v.off(0, j, kz)
				for i := 0; i < v.nx; i++ {
					if a := math.Abs(v.data[base+i]); a > m {
						m = a
					}
				}
			}
		}
		k.work(int64(v.nx * v.ny * v.nz))
	})
	return
}

func (k *kernel) vectorMaxAbs(v *Vector) (m float64) {
	k.call(smgVectorMaxAbs, func() {
		local := k.vectorLocalMaxAbs(v)
		m = k.globalMax(local)
	})
	return
}

// vectorPlaneCopy copies plane kz of src into plane kz of dst.
func (k *kernel) vectorPlaneCopy(dst, src *Vector, kz int) {
	k.call(smgVectorPlaneCopy, func() {
		for j := 0; j < dst.ny; j++ {
			d := dst.off(0, j, kz)
			s := src.off(0, j, kz)
			copy(dst.data[d:d+dst.nx], src.data[s:s+src.nx])
		}
		k.work(int64(dst.nx * dst.ny / 3))
	})
}

func (k *kernel) vectorPlaneClear(v *Vector, kz int) {
	k.call(smgVectorPlaneClear, func() {
		for j := 0; j < v.ny; j++ {
			base := v.off(0, j, kz)
			for i := 0; i < v.nx; i++ {
				v.data[base+i] = 0
			}
		}
		k.work(int64(v.nx * v.ny / 4))
	})
}

func (k *kernel) vectorPlaneAxpy(y *Vector, a float64, x *Vector, kz int) {
	k.call(smgVectorPlaneAxpy, func() {
		for j := 0; j < y.ny; j++ {
			yb := y.off(0, j, kz)
			xb := x.off(0, j, kz)
			for i := 0; i < y.nx; i++ {
				y.data[yb+i] += a * x.data[xb+i]
			}
		}
		k.work(int64(y.nx * y.ny / 2))
	})
}

func (k *kernel) vectorPlaneDot(a, b *Vector, kz int) (dot float64) {
	k.call(smgVectorPlaneDot, func() {
		for j := 0; j < a.ny; j++ {
			ab := a.off(0, j, kz)
			bb := b.off(0, j, kz)
			for i := 0; i < a.nx; i++ {
				dot += a.data[ab+i] * b.data[bb+i]
			}
		}
		k.work(int64(a.nx * a.ny / 2))
	})
	return
}

func (k *kernel) vectorGhostClear(v *Vector) {
	k.call(smgVectorGhostClear, func() {
		// Clear the Y ghost planes (the exchanged ones).
		for kz := -1; kz <= v.nz; kz++ {
			for _, j := range []int{-1, v.ny} {
				base := v.off(0, j, kz)
				for i := -1; i <= v.nx; i++ {
					v.data[base+i] = 0
				}
			}
		}
		k.work(int64(v.nx * v.nz / 2))
	})
}

// vectorSetSeeded fills the interior with a deterministic pseudo-random
// pattern (the benchmark's reproducible initial guess).
func (k *kernel) vectorSetSeeded(v *Vector, seed int) {
	k.call(smgVectorSetSeeded, func() {
		state := uint64(seed)*2654435761 + 12345
		for kz := 0; kz < v.nz; kz++ {
			for j := 0; j < v.ny; j++ {
				base := v.off(0, j, kz)
				for i := 0; i < v.nx; i++ {
					state = state*6364136223846793005 + 1442695040888963407
					v.data[base+i] = float64(state>>40)/(1<<24) - 0.5
				}
			}
		}
		k.work(int64(v.nx * v.ny * v.nz))
	})
}

func (k *kernel) vectorVolume(v *Vector) (n int) {
	k.call(smgVectorVolume, func() { n = v.nx * v.ny * v.nz; k.work(20) })
	return
}

// vectorCheckFinite guards against numerical blow-up.
func (k *kernel) vectorCheckFinite(v *Vector) (ok bool) {
	k.call(smgVectorCheckFinite, func() {
		ok = true
		for _, x := range v.data {
			if math.IsNaN(x) || math.IsInf(x, 0) {
				ok = false
				return
			}
		}
		k.work(int64(len(v.data) / 8))
	})
	return
}

// vectorNorm is the global L2 norm.
func (k *kernel) vectorNorm(v *Vector) (n float64) {
	k.call(smgVectorNorm, func() {
		n = math.Sqrt(k.vectorInnerProd(v, v))
		k.work(60)
	})
	return
}
