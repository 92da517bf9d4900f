package smg98

import "dynprof/internal/mpi"

// commPkg describes a level's ghost-plane exchange: the xz-plane buffers
// swapped with the Y-neighbour ranks.
type commPkg struct {
	nx, nz   int
	lo, hi   int // neighbour ranks, -1 at the domain boundary
	bufLoOut []float64
	bufHiOut []float64
}

// commHandle is an in-flight exchange (the posted receives).
type commHandle struct {
	reqLo, reqHi *mpi.Request
}

const ghostTag = 71

func (k *kernel) neighborRank(dir int) (r int) {
	k.call(smgNeighborRank, func() {
		r = k.rank + dir
		if r < 0 || r >= k.size {
			r = -1
		}
		k.work(22)
	})
	return
}

func (k *kernel) commPlaneBytes(pkg *commPkg) (b int) {
	k.call(smgCommPlaneBytes, func() { b = 8 * pkg.nx * pkg.nz; k.work(20) })
	return
}

func (k *kernel) commPkgCreate(nx, nz int) (pkg *commPkg) {
	k.call(smgCommPkgCreate, func() {
		pkg = &commPkg{
			nx: nx, nz: nz,
			lo: k.neighborRank(-1), hi: k.neighborRank(+1),
			bufLoOut: make([]float64, nx*nz),
			bufHiOut: make([]float64, nx*nz),
		}
		k.work(180)
	})
	return
}

func (k *kernel) commPkgDestroy(pkg *commPkg) {
	k.call(smgCommPkgDestroy, func() {
		pkg.bufLoOut, pkg.bufHiOut = nil, nil
		k.work(40)
	})
}

// packPlaneLow serialises the j=0 xz-plane for the low neighbour.
func (k *kernel) packPlaneLow(pkg *commPkg, v *Vector) {
	k.call(smgPackPlaneLow, func() {
		for kz := 0; kz < pkg.nz; kz++ {
			for i := 0; i < pkg.nx; i++ {
				pkg.bufLoOut[kz*pkg.nx+i] = v.At(i, 0, kz)
			}
		}
		k.work(int64(pkg.nx * pkg.nz / 2))
	})
}

// packPlaneHigh serialises the j=ny-1 xz-plane for the high neighbour.
func (k *kernel) packPlaneHigh(pkg *commPkg, v *Vector) {
	k.call(smgPackPlaneHigh, func() {
		for kz := 0; kz < pkg.nz; kz++ {
			for i := 0; i < pkg.nx; i++ {
				pkg.bufHiOut[kz*pkg.nx+i] = v.At(i, v.ny-1, kz)
			}
		}
		k.work(int64(pkg.nx * pkg.nz / 2))
	})
}

// unpackPlaneLow writes the low neighbour's plane into the j=-1 ghosts.
func (k *kernel) unpackPlaneLow(pkg *commPkg, v *Vector, buf []float64) {
	k.call(smgUnpackPlaneLow, func() {
		for kz := 0; kz < pkg.nz; kz++ {
			for i := 0; i < pkg.nx; i++ {
				v.Set(i, -1, kz, buf[kz*pkg.nx+i])
			}
		}
		k.work(int64(pkg.nx * pkg.nz / 2))
	})
}

// unpackPlaneHigh writes the high neighbour's plane into the j=ny ghosts.
func (k *kernel) unpackPlaneHigh(pkg *commPkg, v *Vector, buf []float64) {
	k.call(smgUnpackPlaneHigh, func() {
		for kz := 0; kz < pkg.nz; kz++ {
			for i := 0; i < pkg.nx; i++ {
				v.Set(i, v.ny, kz, buf[kz*pkg.nx+i])
			}
		}
		k.work(int64(pkg.nx * pkg.nz / 2))
	})
}

func (k *kernel) postRecvLow(pkg *commPkg) (req *mpi.Request) {
	k.call(smgPostRecvLow, func() {
		if pkg.lo >= 0 {
			req = k.m.Irecv(pkg.lo, ghostTag)
		}
		k.work(60)
	})
	return
}

func (k *kernel) postRecvHigh(pkg *commPkg) (req *mpi.Request) {
	k.call(smgPostRecvHigh, func() {
		if pkg.hi >= 0 {
			req = k.m.Irecv(pkg.hi, ghostTag)
		}
		k.work(60)
	})
	return
}

func (k *kernel) sendPlaneLow(pkg *commPkg) {
	k.call(smgSendPlaneLow, func() {
		if pkg.lo >= 0 {
			k.m.Send(pkg.lo, ghostTag, 8*len(pkg.bufLoOut), mpi.CopyF64s(pkg.bufLoOut))
		}
		k.work(40)
	})
}

func (k *kernel) sendPlaneHigh(pkg *commPkg) {
	k.call(smgSendPlaneHigh, func() {
		if pkg.hi >= 0 {
			k.m.Send(pkg.hi, ghostTag, 8*len(pkg.bufHiOut), mpi.CopyF64s(pkg.bufHiOut))
		}
		k.work(40)
	})
}

func (k *kernel) waitRecvLow(pkg *commPkg, v *Vector, h *commHandle) {
	k.call(smgWaitRecvLow, func() {
		if h.reqLo != nil {
			// A nil payload is a degraded exchange (crashed neighbour):
			// keep the stale ghost plane.
			if buf, ok := k.m.Wait(h.reqLo).Payload.([]float64); ok {
				k.unpackPlaneLow(pkg, v, buf)
			}
		}
		k.work(40)
	})
}

func (k *kernel) waitRecvHigh(pkg *commPkg, v *Vector, h *commHandle) {
	k.call(smgWaitRecvHigh, func() {
		if h.reqHi != nil {
			if buf, ok := k.m.Wait(h.reqHi).Payload.([]float64); ok {
				k.unpackPlaneHigh(pkg, v, buf)
			}
		}
		k.work(40)
	})
}

// commHandleCreate posts both receives for an exchange.
func (k *kernel) commHandleCreate(pkg *commPkg) (h *commHandle) {
	k.call(smgCommHandleCreate, func() {
		h = &commHandle{reqLo: k.postRecvLow(pkg), reqHi: k.postRecvHigh(pkg)}
		k.work(30)
	})
	return
}

// commHandleFinalize completes an exchange.
func (k *kernel) commHandleFinalize(pkg *commPkg, v *Vector, h *commHandle) {
	k.call(smgCommHandleFinalize, func() {
		k.waitRecvLow(pkg, v, h)
		k.waitRecvHigh(pkg, v, h)
		k.work(30)
	})
}

// exchangeBegin posts receives and sends both boundary planes.
func (k *kernel) exchangeBegin(pkg *commPkg, v *Vector) (h *commHandle) {
	k.call(smgExchangeBegin, func() {
		h = k.commHandleCreate(pkg)
		k.packPlaneLow(pkg, v)
		k.packPlaneHigh(pkg, v)
		k.sendPlaneLow(pkg)
		k.sendPlaneHigh(pkg)
	})
	return
}

// exchangeEnd completes the exchange into v's ghost planes.
func (k *kernel) exchangeEnd(pkg *commPkg, v *Vector, h *commHandle) {
	k.call(smgExchangeEnd, func() {
		k.commHandleFinalize(pkg, v, h)
	})
}

// exchangeGhost is the full ghost-plane swap with both Y neighbours.
func (k *kernel) exchangeGhost(pkg *commPkg, v *Vector) {
	k.call(smgExchangeGhost, func() {
		h := k.exchangeBegin(pkg, v)
		k.exchangeEnd(pkg, v, h)
	})
}

func (k *kernel) globalSum(x float64) (sum float64) {
	k.call(smgGlobalSum, func() {
		sum = k.m.AllreduceF64(mpi.Sum, x)
		k.work(30)
	})
	return
}

func (k *kernel) globalMax(x float64) (max float64) {
	k.call(smgGlobalMax, func() {
		max = k.m.AllreduceF64(mpi.Max, x)
		k.work(30)
	})
	return
}
