// Package smg98 reimplements the Smg98 ASCI kernel benchmark: a
// semicoarsening multigrid solver for a 3-D 7-point Laplacian, written —
// like the original hypre-derived code — as a large collection of small
// functions (199 of them, 62 in the solver phase), which is exactly why
// full static instrumentation perturbs it so badly in the paper's
// Figure 7(a).
//
// The problem is decomposed across MPI ranks along Y (one plane-exchange
// neighbour on each side) and the multigrid semicoarsens in the local Z
// dimension. The per-rank problem size is fixed, so the global problem
// grows with the rank count: the paper's weak-scaling input.
package smg98

import "fmt"

// Index is a 3-D grid index (i=x, j=y, k=z).
type Index [3]int

// Box is an inclusive 3-D index range.
type Box struct {
	Min Index
	Max Index
}

// --- hypre-style fine-grained utilities -------------------------------
//
// Every utility below traverses the instrumentation call gate; their
// density is the defining performance characteristic of Smg98.

func (k *kernel) indexCopy(a Index) (out Index) {
	k.call(smgIndexCopy, func() { out = a; k.work(24) })
	return
}

func (k *kernel) indexAdd(a, b Index) (out Index) {
	k.call(smgIndexAdd, func() {
		out = Index{a[0] + b[0], a[1] + b[1], a[2] + b[2]}
		k.work(30)
	})
	return
}

func (k *kernel) indexShift(a Index, dim, by int) (out Index) {
	k.call(smgIndexShift, func() {
		out = a
		out[dim] += by
		k.work(26)
	})
	return
}

func (k *kernel) indexMin(a, b Index) (out Index) {
	k.call(smgIndexMin, func() {
		for d := 0; d < 3; d++ {
			if a[d] < b[d] {
				out[d] = a[d]
			} else {
				out[d] = b[d]
			}
		}
		k.work(36)
	})
	return
}

func (k *kernel) indexMax(a, b Index) (out Index) {
	k.call(smgIndexMax, func() {
		for d := 0; d < 3; d++ {
			if a[d] > b[d] {
				out[d] = a[d]
			} else {
				out[d] = b[d]
			}
		}
		k.work(36)
	})
	return
}

func (k *kernel) indexEqual(a, b Index) (eq bool) {
	k.call(smgIndexEqual, func() { eq = a == b; k.work(22) })
	return
}

func (k *kernel) boxCreate(min, max Index) (b Box) {
	k.call(smgBoxCreate, func() { b = Box{Min: min, Max: max}; k.work(32) })
	return
}

func (k *kernel) boxVolume(b Box) (v int) {
	k.call(smgBoxVolume, func() {
		v = 1
		for d := 0; d < 3; d++ {
			ext := b.Max[d] - b.Min[d] + 1
			if ext < 0 {
				ext = 0
			}
			v *= ext
		}
		k.work(40)
	})
	return
}

func (k *kernel) boxNumPlanes(b Box) (n int) {
	k.call(smgBoxNumPlanes, func() {
		n = b.Max[2] - b.Min[2] + 1
		if n < 0 {
			n = 0
		}
		k.work(24)
	})
	return
}

func (k *kernel) boxGrow(b Box, by int) (out Box) {
	k.call(smgBoxGrow, func() {
		out = b
		for d := 0; d < 3; d++ {
			out.Min[d] -= by
			out.Max[d] += by
		}
		k.work(38)
	})
	return
}

func (k *kernel) boxShrink(b Box, by int) (out Box) {
	k.call(smgBoxShrink, func() {
		out = b
		for d := 0; d < 3; d++ {
			out.Min[d] += by
			out.Max[d] -= by
		}
		k.work(38)
	})
	return
}

func (k *kernel) boxShiftPos(b Box, dim, by int) (out Box) {
	k.call(smgBoxShiftPos, func() {
		out = b
		out.Min[dim] += by
		out.Max[dim] += by
		k.work(30)
	})
	return
}

func (k *kernel) boxShiftNeg(b Box, dim, by int) (out Box) {
	k.call(smgBoxShiftNeg, func() {
		out = b
		out.Min[dim] -= by
		out.Max[dim] -= by
		k.work(30)
	})
	return
}

func (k *kernel) boxIntersect(a, b Box) (out Box, ok bool) {
	k.call(smgBoxIntersect, func() {
		for d := 0; d < 3; d++ {
			lo, hi := a.Min[d], a.Max[d]
			if b.Min[d] > lo {
				lo = b.Min[d]
			}
			if b.Max[d] < hi {
				hi = b.Max[d]
			}
			out.Min[d], out.Max[d] = lo, hi
			if lo > hi {
				ok = false
				return
			}
		}
		ok = true
		k.work(52)
	})
	return
}

func (k *kernel) boxContains(b Box, idx Index) (in bool) {
	k.call(smgBoxContains, func() {
		in = true
		for d := 0; d < 3; d++ {
			if idx[d] < b.Min[d] || idx[d] > b.Max[d] {
				in = false
				return
			}
		}
		k.work(34)
	})
	return
}

// boxPlane is the xy-plane of b at local z index kz.
func (k *kernel) boxPlane(b Box, kz int) (out Box) {
	k.call(smgBoxPlane, func() {
		out = b
		out.Min[2] = b.Min[2] + kz
		out.Max[2] = out.Min[2]
		k.work(30)
	})
	return
}

func (k *kernel) boxCoarsenZ(b Box) (out Box) {
	k.call(smgBoxCoarsenZ, func() {
		out = b
		out.Max[2] = b.Min[2] + (b.Max[2]-b.Min[2])/2
		k.work(34)
	})
	return
}

func (k *kernel) boxRefineZ(b Box) (out Box) {
	k.call(smgBoxRefineZ, func() {
		out = b
		out.Max[2] = b.Min[2] + 2*(b.Max[2]-b.Min[2]) + 1
		k.work(34)
	})
	return
}

// boxCheck validates a box's invariants; a cheap but frequently called
// sanity routine in debug-friendly numerical codes.
func (k *kernel) boxCheck(b Box) {
	k.call(smgBoxCheck, func() {
		for d := 0; d < 3; d++ {
			if b.Max[d] < b.Min[d]-1 {
				panic(fmt.Sprintf("smg98: degenerate box %+v", b))
			}
		}
		k.work(28)
	})
}
