// Package sppm reimplements the Sppm ASCI kernel benchmark: a simplified
// piecewise parabolic method for 3-D gas dynamics (gamma-law Euler
// equations, dimension-split sweeps). Unlike Smg98 it has few, large
// functions — 22 in total, 7 of which do the majority of the computation —
// so instrumentation perturbs it far less (Figure 7(b)).
//
// The domain is decomposed across ranks along Z; the per-rank zone count
// is fixed, so the global problem grows with the rank count (weak
// scaling).
package sppm

import (
	"fmt"
	"math"

	"dynprof/internal/guide"
	"dynprof/internal/mpi"
)

const gamma = 1.4

// state holds the conserved variables on the local grid (one ghost layer
// in Z, the decomposed dimension).
type state struct {
	nx, ny, nz int
	rho        []float64 // density
	mx, my, mz []float64 // momentum
	en         []float64 // total energy
}

func (st *state) idx(i, j, k int) int {
	// k ranges -1..nz (ghost planes).
	return ((k+1)*st.ny+j)*st.nx + i
}

type kernel struct {
	c    *guide.Ctx
	m    *mpi.Ctx
	rank int
	size int
	st   *state
	dt   float64
	time float64
}

func (k *kernel) call(f guide.Fn, fn func()) { k.c.Call(f, fn) }
func (k *kernel) work(cycles int64)          { k.c.T.Work(cycles) }

// readDeck parses the input: per-rank zone counts and step budget.
func (k *kernel) readDeck() (nx, ny, nz, steps int) {
	k.call(sppmReadDeck, func() {
		nx = k.c.Arg("nx", 12)
		ny = k.c.Arg("ny", 12)
		nz = k.c.Arg("nz", 12)
		steps = k.c.Arg("steps", 8)
		if nx < 4 || ny < 4 || nz < 4 {
			panic(fmt.Sprintf("sppm: grid too small: %dx%dx%d", nx, ny, nz))
		}
		k.work(4_000)
	})
	return
}

// initHydro sets a shocked-sphere initial condition.
func (k *kernel) initHydro(nx, ny, nz int) {
	k.call(sppmInitHydro, func() {
		n := nx * ny * (nz + 2)
		k.st = &state{
			nx: nx, ny: ny, nz: nz,
			rho: make([]float64, n),
			mx:  make([]float64, n), my: make([]float64, n), mz: make([]float64, n),
			en: make([]float64, n),
		}
		st := k.st
		cx, cy := float64(nx)/2, float64(ny)/2
		czGlobal := float64(nz*k.size) / 2
		for kz := 0; kz < nz; kz++ {
			zg := float64(k.rank*nz + kz)
			for j := 0; j < ny; j++ {
				for i := 0; i < nx; i++ {
					id := st.idx(i, j, kz)
					dx, dy, dz := float64(i)-cx, float64(j)-cy, zg-czGlobal
					r2 := dx*dx + dy*dy + dz*dz
					rho, p := 1.0, 1.0
					if r2 < 9 {
						rho, p = 4.0, 10.0
					}
					st.rho[id] = rho
					st.en[id] = p / (gamma - 1) // at rest
				}
			}
		}
		k.work(int64(6 * nx * ny * nz))
	})
}

// eos returns pressure and sound speed for one zone's conserved state.
// One of the seven hot functions; it is called per pencil on gathered
// primitives, not per zone, as the vectorised original does.
func (k *kernel) eos(rho, mom, en []float64, p, cs []float64) {
	k.call(sppmEOS, func() {
		for i := range rho {
			kin := 0.5 * mom[i] * mom[i] / rho[i]
			pr := (gamma - 1) * (en[i] - kin)
			if pr < 1e-10 {
				pr = 1e-10
			}
			p[i] = pr
			cs[i] = math.Sqrt(gamma * pr / rho[i])
		}
		k.work(int64(25 * len(rho)))
	})
}

// pencil is the workspace for one 1-D sweep line.
type pencil struct {
	rho, mom, en    []float64 // gathered line (with 1 ghost each side)
	p, cs           []float64
	frho, fmom, fen []float64 // interface fluxes
	drho, dmom, den []float64 // PPM-style slopes
}

func newPencil(n int) *pencil {
	return &pencil{
		rho: make([]float64, n+2), mom: make([]float64, n+2), en: make([]float64, n+2),
		p: make([]float64, n+2), cs: make([]float64, n+2),
		frho: make([]float64, n+1), fmom: make([]float64, n+1), fen: make([]float64, n+1),
		drho: make([]float64, n+2), dmom: make([]float64, n+2), den: make([]float64, n+2),
	}
}

// interpolate computes limited slopes along the pencil (the PPM
// reconstruction stage). Hot.
func (k *kernel) interpolate(pc *pencil) {
	k.call(sppmInterpolate, func() {
		minmod := func(a, b float64) float64 {
			if a*b <= 0 {
				return 0
			}
			if math.Abs(a) < math.Abs(b) {
				return a
			}
			return b
		}
		n := len(pc.rho)
		for i := 1; i < n-1; i++ {
			pc.drho[i] = minmod(pc.rho[i+1]-pc.rho[i], pc.rho[i]-pc.rho[i-1])
			pc.dmom[i] = minmod(pc.mom[i+1]-pc.mom[i], pc.mom[i]-pc.mom[i-1])
			pc.den[i] = minmod(pc.en[i+1]-pc.en[i], pc.en[i]-pc.en[i-1])
		}
		k.work(int64(30 * n))
	})
}

// riemannSolve computes Rusanov interface fluxes along the pencil. Hot.
func (k *kernel) riemannSolve(pc *pencil) {
	k.call(sppmRiemannSolve, func() {
		n := len(pc.frho)
		for f := 0; f < n; f++ {
			l, r := f, f+1
			rl := pc.rho[l] + 0.5*pc.drho[l]
			rr := pc.rho[r] - 0.5*pc.drho[r]
			ml := pc.mom[l] + 0.5*pc.dmom[l]
			mr := pc.mom[r] - 0.5*pc.dmom[r]
			el := pc.en[l] + 0.5*pc.den[l]
			er := pc.en[r] - 0.5*pc.den[r]
			ul, ur := ml/rl, mr/rr
			// Local max wave speed bounds the numerical dissipation.
			s := math.Max(math.Abs(ul)+pc.cs[l], math.Abs(ur)+pc.cs[r])
			fl := func(rho, m, e, p, u float64) (float64, float64, float64) {
				return m, m*u + p, (e + p) * u
			}
			f1l, f2l, f3l := fl(rl, ml, el, pc.p[l], ul)
			f1r, f2r, f3r := fl(rr, mr, er, pc.p[r], ur)
			pc.frho[f] = 0.5*(f1l+f1r) - 0.5*s*(rr-rl)
			pc.fmom[f] = 0.5*(f2l+f2r) - 0.5*s*(mr-ml)
			pc.fen[f] = 0.5*(f3l+f3r) - 0.5*s*(er-el)
		}
		k.work(int64(120 * n))
	})
}

// fluxUpdate applies the conservative update along the pencil. Hot.
func (k *kernel) fluxUpdate(pc *pencil, dt float64) {
	k.call(sppmFluxUpdate, func() {
		n := len(pc.frho) - 1
		for i := 0; i < n; i++ {
			pc.rho[i+1] -= dt * (pc.frho[i+1] - pc.frho[i])
			pc.mom[i+1] -= dt * (pc.fmom[i+1] - pc.fmom[i])
			pc.en[i+1] -= dt * (pc.fen[i+1] - pc.fen[i])
			if pc.rho[i+1] < 1e-8 {
				pc.rho[i+1] = 1e-8
			}
		}
		k.work(int64(35 * n))
	})
}

// sweepPencil runs the hot pipeline on one gathered line.
func (k *kernel) sweepPencil(pc *pencil, dt float64) {
	k.eos(pc.rho, pc.mom, pc.en, pc.p, pc.cs)
	k.interpolate(pc)
	k.riemannSolve(pc)
	k.fluxUpdate(pc, dt)
}

// sweepX performs the X-direction sweep over all (j,k) pencils. Hot.
func (k *kernel) sweepX(dt float64) {
	k.call(sppmSweepX, func() {
		st := k.st
		pc := newPencil(st.nx)
		for kz := 0; kz < st.nz; kz++ {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				for i := 0; i < st.nx; i++ {
					pc.rho[i+1], pc.mom[i+1], pc.en[i+1] = st.rho[base+i], st.mx[base+i], st.en[base+i]
				}
				// Reflecting X boundaries.
				pc.rho[0], pc.mom[0], pc.en[0] = pc.rho[1], -pc.mom[1], pc.en[1]
				n := st.nx
				pc.rho[n+1], pc.mom[n+1], pc.en[n+1] = pc.rho[n], -pc.mom[n], pc.en[n]
				k.sweepPencil(pc, dt)
				for i := 0; i < st.nx; i++ {
					st.rho[base+i], st.mx[base+i], st.en[base+i] = pc.rho[i+1], pc.mom[i+1], pc.en[i+1]
				}
			}
		}
		k.work(int64(12 * st.nx * st.ny * st.nz))
	})
}

// sweepY performs the Y-direction sweep. Hot.
func (k *kernel) sweepY(dt float64) {
	k.call(sppmSweepY, func() {
		st := k.st
		pc := newPencil(st.ny)
		for kz := 0; kz < st.nz; kz++ {
			for i := 0; i < st.nx; i++ {
				id := st.idx(i, 0, kz)
				for j := 0; j < st.ny; j++ {
					pc.rho[j+1], pc.mom[j+1], pc.en[j+1] = st.rho[id], st.my[id], st.en[id]
					id += st.nx
				}
				pc.rho[0], pc.mom[0], pc.en[0] = pc.rho[1], -pc.mom[1], pc.en[1]
				n := st.ny
				pc.rho[n+1], pc.mom[n+1], pc.en[n+1] = pc.rho[n], -pc.mom[n], pc.en[n]
				k.sweepPencil(pc, dt)
				id = st.idx(i, 0, kz)
				for j := 0; j < st.ny; j++ {
					st.rho[id], st.my[id], st.en[id] = pc.rho[j+1], pc.mom[j+1], pc.en[j+1]
					id += st.nx
				}
			}
		}
		k.work(int64(12 * st.nx * st.ny * st.nz))
	})
}

// sweepZ performs the Z-direction sweep using exchanged ghost planes. Hot.
func (k *kernel) sweepZ(dt float64) {
	k.call(sppmSweepZ, func() {
		st := k.st
		pc := newPencil(st.nz)
		for j := 0; j < st.ny; j++ {
			for i := 0; i < st.nx; i++ {
				id := st.idx(i, j, -1)
				plane := st.nx * st.ny
				for kz := -1; kz <= st.nz; kz++ {
					pc.rho[kz+1], pc.mom[kz+1], pc.en[kz+1] = st.rho[id], st.mz[id], st.en[id]
					id += plane
				}
				if k.rank == 0 { // reflecting global low-Z boundary
					pc.rho[0], pc.mom[0], pc.en[0] = pc.rho[1], -pc.mom[1], pc.en[1]
				}
				if k.rank == k.size-1 {
					n := st.nz
					pc.rho[n+1], pc.mom[n+1], pc.en[n+1] = pc.rho[n], -pc.mom[n], pc.en[n]
				}
				k.sweepPencil(pc, dt)
				id = st.idx(i, j, 0)
				for kz := 0; kz < st.nz; kz++ {
					st.rho[id], st.mz[id], st.en[id] = pc.rho[kz+1], pc.mom[kz+1], pc.en[kz+1]
					id += plane
				}
			}
		}
		k.work(int64(12 * st.nx * st.ny * st.nz))
	})
}

// ghostVars enumerates the exchanged fields.
func (k *kernel) ghostVars() [][]float64 {
	st := k.st
	return [][]float64{st.rho, st.mz, st.en}
}

// packGhost serialises a boundary plane (kz = 0 or nz-1).
func (k *kernel) packGhost(kz int) (buf []float64) {
	k.call(sppmPackGhost, func() {
		st := k.st
		vars := k.ghostVars()
		buf = make([]float64, 0, len(vars)*st.nx*st.ny)
		for _, v := range vars {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				buf = append(buf, v[base:base+st.nx]...)
			}
		}
		k.work(int64(2 * st.nx * st.ny))
	})
	return
}

// unpackGhost fills a ghost plane (kz = -1 or nz) from a received buffer.
func (k *kernel) unpackGhost(kz int, buf []float64) {
	k.call(sppmUnpackGhost, func() {
		st := k.st
		pos := 0
		for _, v := range k.ghostVars() {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				copy(v[base:base+st.nx], buf[pos:pos+st.nx])
				pos += st.nx
			}
		}
		k.work(int64(2 * st.nx * st.ny))
	})
}

// applyBC fills ghost planes at the global domain edges by reflection.
func (k *kernel) applyBC() {
	k.call(sppmApplyBC, func() {
		st := k.st
		if k.rank == 0 {
			for _, v := range k.ghostVars() {
				for j := 0; j < st.ny; j++ {
					copy(v[st.idx(0, j, -1):st.idx(0, j, -1)+st.nx],
						v[st.idx(0, j, 0):st.idx(0, j, 0)+st.nx])
				}
			}
		}
		if k.rank == k.size-1 {
			for _, v := range k.ghostVars() {
				for j := 0; j < st.ny; j++ {
					copy(v[st.idx(0, j, st.nz):st.idx(0, j, st.nz)+st.nx],
						v[st.idx(0, j, st.nz-1):st.idx(0, j, st.nz-1)+st.nx])
				}
			}
		}
		k.work(int64(st.nx * st.ny))
	})
}

const ghostTag = 31

// exchangeBoundary swaps Z ghost planes with both neighbours.
func (k *kernel) exchangeBoundary() {
	k.call(sppmExchangeBoundary, func() {
		st := k.st
		lo, hi := k.rank-1, k.rank+1
		bytes := 8 * 3 * st.nx * st.ny
		var reqLo, reqHi *mpi.Request
		if lo >= 0 {
			reqLo = k.m.Irecv(lo, ghostTag)
		}
		if hi < k.size {
			reqHi = k.m.Irecv(hi, ghostTag)
		}
		if lo >= 0 {
			k.m.Send(lo, ghostTag, bytes, k.packGhost(0))
		}
		if hi < k.size {
			k.m.Send(hi, ghostTag, bytes, k.packGhost(st.nz-1))
		}
		// Nil payloads are degraded exchanges (crashed neighbour): the
		// survivor keeps its stale ghost cells.
		if reqLo != nil {
			if buf, ok := k.m.Wait(reqLo).Payload.([]float64); ok {
				k.unpackGhost(-1, buf)
			}
		}
		if reqHi != nil {
			if buf, ok := k.m.Wait(reqHi).Payload.([]float64); ok {
				k.unpackGhost(st.nz, buf)
			}
		}
		k.applyBC()
	})
}

// courantLimit computes the rank-local stable timestep.
func (k *kernel) courantLimit() (dt float64) {
	k.call(sppmCourantLimit, func() {
		st := k.st
		maxS := 1e-10
		for kz := 0; kz < st.nz; kz++ {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				for i := 0; i < st.nx; i++ {
					id := base + i
					rho := st.rho[id]
					kin := 0.5 * (st.mx[id]*st.mx[id] + st.my[id]*st.my[id] + st.mz[id]*st.mz[id]) / rho
					p := (gamma - 1) * (st.en[id] - kin)
					if p < 1e-10 {
						p = 1e-10
					}
					cs := math.Sqrt(gamma * p / rho)
					u := math.Abs(st.mx[id]/rho) + math.Abs(st.my[id]/rho) + math.Abs(st.mz[id]/rho)
					if s := u + cs; s > maxS {
						maxS = s
					}
				}
			}
		}
		dt = 0.4 / maxS
		k.work(int64(14 * st.nx * st.ny * st.nz))
	})
	return
}

// timestep agrees a global dt (minimum over ranks).
func (k *kernel) timestep() (dt float64) {
	k.call(sppmTimestep, func() {
		local := k.courantLimit()
		dt = k.m.AllreduceF64(mpi.Min, local)
		k.dt = dt
		k.work(200)
	})
	return
}

// globalDiagnostics reduces total mass and energy (conservation check).
func (k *kernel) globalDiagnostics() (mass, energy float64) {
	k.call(sppmGlobalDiagnostics, func() {
		st := k.st
		var lm, le float64
		for kz := 0; kz < st.nz; kz++ {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				for i := 0; i < st.nx; i++ {
					lm += st.rho[base+i]
					le += st.en[base+i]
				}
			}
		}
		mass = k.m.AllreduceF64(mpi.Sum, lm)
		energy = k.m.AllreduceF64(mpi.Sum, le)
		k.work(int64(3 * st.nx * st.ny * st.nz))
	})
	return
}

// checkState validates positivity after a step.
func (k *kernel) checkState() {
	k.call(sppmCheckState, func() {
		st := k.st
		for kz := 0; kz < st.nz; kz++ {
			for j := 0; j < st.ny; j++ {
				base := st.idx(0, j, kz)
				for i := 0; i < st.nx; i++ {
					if st.rho[base+i] <= 0 || math.IsNaN(st.rho[base+i]) {
						panic(fmt.Sprintf("sppm: bad density at rank %d (%d,%d,%d)", k.rank, i, j, kz))
					}
				}
			}
		}
		k.work(int64(st.nx * st.ny * st.nz / 2))
	})
}

// stepDriver advances one full dimension-split step.
func (k *kernel) stepDriver() {
	k.call(sppmStepDriver, func() {
		dt := k.timestep()
		k.exchangeBoundary()
		k.sweepX(dt)
		k.sweepY(dt)
		k.sweepZ(dt)
		k.checkState()
		k.time += dt
	})
}

func (k *kernel) initTimers() (t0 float64) {
	k.call(sppmInitTimers, func() { t0 = k.m.Wtime(); k.work(300) })
	return
}

func (k *kernel) reportTimers(t0 float64) (elapsed float64) {
	k.call(sppmReportTimers, func() {
		elapsed = k.m.AllreduceF64(mpi.Max, k.m.Wtime()-t0)
		k.work(400)
	})
	return
}

// finish prints the run summary and synchronises before teardown.
func (k *kernel) finish(mass, energy float64, steps int) {
	k.call(sppmFinish, func() {
		_ = fmt.Sprintf("sppm: %d steps t=%.4f mass=%.4f energy=%.4f", steps, k.time, mass, energy)
		k.m.Barrier()
		k.st = nil
		k.work(2_000)
	})
}

// runMain is the benchmark body between MPI_Init and MPI_Finalize.
func (k *kernel) runMain() {
	k.call(sppmMain, func() {
		nx, ny, nz, steps := k.readDeck()
		k.initHydro(nx, ny, nz)
		t0 := k.initTimers()
		for s := 0; s < steps; s++ {
			k.stepDriver()
		}
		mass, energy := k.globalDiagnostics()
		k.reportTimers(t0)
		k.finish(mass, energy, steps)
	})
}

// funcs is Sppm's 22-function table.
var funcs guide.FuncTable

// Call-gate handles, one per function, in table order.
var (
	sppmMain              = funcs.Add("sppm_Main", 40)
	sppmReadDeck          = funcs.Add("sppm_ReadDeck", 24)
	sppmInitHydro         = funcs.Add("sppm_InitHydro", 60)
	sppmEOS               = funcs.Add("sppm_EOS", 46)
	sppmInterpolate       = funcs.Add("sppm_Interpolate", 52)
	sppmRiemannSolve      = funcs.Add("sppm_RiemannSolve", 88)
	sppmFluxUpdate        = funcs.Add("sppm_FluxUpdate", 44)
	sppmSweepX            = funcs.Add("sppm_SweepX", 90)
	sppmSweepY            = funcs.Add("sppm_SweepY", 90)
	sppmSweepZ            = funcs.Add("sppm_SweepZ", 96)
	sppmPackGhost         = funcs.Add("sppm_PackGhost", 30)
	sppmUnpackGhost       = funcs.Add("sppm_UnpackGhost", 30)
	sppmApplyBC           = funcs.Add("sppm_ApplyBC", 36)
	sppmExchangeBoundary  = funcs.Add("sppm_ExchangeBoundary", 42)
	sppmCourantLimit      = funcs.Add("sppm_CourantLimit", 56)
	sppmTimestep          = funcs.Add("sppm_Timestep", 26)
	sppmGlobalDiagnostics = funcs.Add("sppm_GlobalDiagnostics", 40)
	sppmCheckState        = funcs.Add("sppm_CheckState", 28)
	sppmStepDriver        = funcs.Add("sppm_StepDriver", 30)
	sppmInitTimers        = funcs.Add("sppm_InitTimers", 16)
	sppmReportTimers      = funcs.Add("sppm_ReportTimers", 20)
	sppmFinish            = funcs.Add("sppm_Finish", 26)
)

// App returns the Sppm application definition: "Sppm has 22 functions, 7
// of which are responsible for the majority of the computation"; the
// global problem size grows with the processor count (weak scaling).
func App() *guide.App {
	return &guide.App{
		Name:  "sppm",
		Lang:  guide.MPIF77,
		Funcs: funcs.Funcs(),
		// The 7 most important functions by inclusive time: the per-step
		// sweep drivers and timestep control. The per-pencil kernels
		// (EOS/Interpolate/RiemannSolve/FluxUpdate) carry the call volume
		// that makes Full expensive, so instrumenting only these drivers
		// records little.
		Subset: []string{
			"sppm_StepDriver", "sppm_SweepX", "sppm_SweepY", "sppm_SweepZ",
			"sppm_Timestep", "sppm_CourantLimit", "sppm_ExchangeBoundary",
		},
		DefaultArgs: map[string]int{"nx": 12, "ny": 12, "nz": 12, "steps": 8},
		// Every rank enters the step driver once per timestep, after the
		// previous step's exchanges have drained.
		SyncPoint: "sppm_StepDriver",
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			k := &kernel{c: c, m: c.MPI, rank: c.MPI.Rank(), size: c.MPI.Size()}
			k.runMain()
			c.MPI.Finalize()
		},
	}
}
