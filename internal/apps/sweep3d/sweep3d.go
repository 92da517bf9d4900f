// Package sweep3d reimplements the Sweep3d ASCI kernel benchmark: a
// discrete-ordinates (S_n) neutron transport solver using
// diamond-difference sweeps pipelined across ranks (the KBA wavefront).
// It has 21 functions, most of them large — the paper's Dynamic policy
// instruments all 21, and still "the differences in performance of the
// instrumentation policies of Sweep3d are negligible" (Figure 7(c)).
//
// The input fixes the global problem, so execution time falls as ranks
// are added (strong scaling). The MPI version does not run on a single
// processor — mirroring the paper's missing 1-CPU data point — because
// the pipelined sweep needs at least one upstream/downstream pair.
package sweep3d

import (
	"fmt"
	"math"

	"dynprof/internal/guide"
	"dynprof/internal/mpi"
)

// direction is one discrete ordinate.
type direction struct {
	mu, eta, xi float64 // cosines (signs give the octant)
	w           float64 // quadrature weight
}

type kernel struct {
	c    *guide.Ctx
	m    *mpi.Ctx
	rank int
	size int

	// Global and local extents (decomposed along X).
	gnx, ny, nz int
	nx          int // local
	x0          int // global index of the first local plane

	sigT, sigS float64 // total / scattering cross sections
	q          float64 // fixed source

	angles []direction
	phi    []float64 // scalar flux, local nx*ny*nz
	phiOld []float64
	src    []float64
}

func (k *kernel) call(f guide.Fn, fn func()) { k.c.Call(f, fn) }
func (k *kernel) work(cycles int64)          { k.c.T.Work(cycles) }

func (k *kernel) idx(i, j, kz int) int { return (kz*k.ny+j)*k.nx + i }

// readInput loads the fixed global problem (strong scaling: "the input to
// Sweep3d specifies the global problem size").
func (k *kernel) readInput() (iters int) {
	k.call(sweepReadInput, func() {
		k.gnx = k.c.Arg("nx", 64)
		k.ny = k.c.Arg("ny", 24)
		k.nz = k.c.Arg("nz", 24)
		iters = k.c.Arg("iters", 4)
		k.sigT, k.sigS, k.q = 1.0, 0.5, 1.0
		k.work(5_000)
	})
	return
}

// decompGrid slices the global X extent across ranks.
func (k *kernel) decompGrid() {
	k.call(sweepDecompGrid, func() {
		if k.gnx%k.size != 0 {
			panic(fmt.Sprintf("sweep3d: nx=%d not divisible by %d ranks", k.gnx, k.size))
		}
		k.nx = k.gnx / k.size
		k.x0 = k.rank * k.nx
		k.work(2_000)
	})
}

// initGeom allocates the flux moments and source arrays.
func (k *kernel) initGeom() {
	k.call(sweepInitGeom, func() {
		n := k.nx * k.ny * k.nz
		k.phi = make([]float64, n)
		k.phiOld = make([]float64, n)
		k.src = make([]float64, n)
		k.work(int64(3 * n))
	})
}

// initAngles builds the level-symmetric-like quadrature: three ordinates
// per octant, eight octants.
func (k *kernel) initAngles() {
	k.call(sweepInitAngles, func() {
		base := []direction{
			{mu: 0.868890, eta: 0.350021, xi: 0.350021, w: 1.0 / 24},
			{mu: 0.350021, eta: 0.868890, xi: 0.350021, w: 1.0 / 24},
			{mu: 0.350021, eta: 0.350021, xi: 0.868890, w: 1.0 / 24},
		}
		for oct := 0; oct < 8; oct++ {
			sm, se, sx := 1.0, 1.0, 1.0
			if oct&1 != 0 {
				sm = -1
			}
			if oct&2 != 0 {
				se = -1
			}
			if oct&4 != 0 {
				sx = -1
			}
			for _, d := range base {
				k.angles = append(k.angles, direction{
					mu: sm * d.mu, eta: se * d.eta, xi: sx * d.xi, w: d.w,
				})
			}
		}
		k.work(4_000)
	})
}

// initSource seeds the external source (uniform with a central hot spot).
func (k *kernel) initSource() {
	k.call(sweepInitSource, func() {
		for kz := 0; kz < k.nz; kz++ {
			for j := 0; j < k.ny; j++ {
				for i := 0; i < k.nx; i++ {
					s := k.q
					gi := k.x0 + i
					if gi > k.gnx/3 && gi < 2*k.gnx/3 && j > k.ny/3 && j < 2*k.ny/3 {
						s *= 4
					}
					k.src[k.idx(i, j, kz)] = s
				}
			}
		}
		k.work(int64(2 * k.nx * k.ny * k.nz))
	})
}

// fluxInit zeroes the scalar flux before the first source iteration.
func (k *kernel) fluxInit() {
	k.call(sweepFluxInit, func() {
		for i := range k.phi {
			k.phi[i] = 0
		}
		k.work(int64(len(k.phi) / 4))
	})
}

// sourceUpdate folds the latest scalar flux into the emission density.
func (k *kernel) sourceUpdate() {
	k.call(sweepSourceUpdate, func() {
		copy(k.phiOld, k.phi)
		for i := range k.src {
			k.src[i] = k.q + k.sigS*k.phi[i]
		}
		for i := range k.phi {
			k.phi[i] = 0
		}
		k.work(int64(3 * len(k.src)))
	})
}

const sweepTag = 91

// upstream resolves the rank we receive the incoming X flux from for a
// given sweep direction; -1 at the domain boundary (vacuum).
func (k *kernel) upstream(mu float64) int {
	if mu > 0 {
		if k.rank == 0 {
			return -1
		}
		return k.rank - 1
	}
	if k.rank == k.size-1 {
		return -1
	}
	return k.rank + 1
}

func (k *kernel) downstream(mu float64) int {
	if mu > 0 {
		if k.rank == k.size-1 {
			return -1
		}
		return k.rank + 1
	}
	if k.rank == 0 {
		return -1
	}
	return k.rank - 1
}

// recvBoundary obtains the incoming X-face angular flux for one ordinate
// (a ny x nz plane), from upstream or the vacuum condition.
func (k *kernel) recvBoundary(d direction) (in []float64) {
	k.call(sweepRecvBoundary, func() {
		if up := k.upstream(d.mu); up >= 0 {
			in, _ = k.m.Recv(up, sweepTag).Payload.([]float64)
		}
		if in == nil {
			// Vacuum condition, or a degraded exchange with a crashed
			// upstream rank (zero-byte release).
			in = make([]float64, k.ny*k.nz)
		}
		k.work(int64(k.ny * k.nz / 2))
	})
	return
}

// sendBoundary forwards the outgoing X-face flux downstream.
func (k *kernel) sendBoundary(d direction, out []float64) {
	k.call(sweepSendBoundary, func() {
		if down := k.downstream(d.mu); down >= 0 {
			k.m.Send(down, sweepTag, 8*len(out), mpi.CopyF64s(out))
		}
		k.work(int64(k.ny * k.nz / 2))
	})
}

// sweepBlock performs the diamond-difference sweep of the whole local
// block for one ordinate — Sweep3d's big inner kernel. It returns the
// outgoing X-face flux.
func (k *kernel) sweepBlock(d direction, in []float64) (out []float64) {
	k.call(sweepSweepBlock, func() {
		nx, ny, nz := k.nx, k.ny, k.nz
		// Traversal order follows the ordinate's signs.
		xi0, xi1, xs := 0, nx, 1
		if d.mu < 0 {
			xi0, xi1, xs = nx-1, -1, -1
		}
		yj0, yj1, ys := 0, ny, 1
		if d.eta < 0 {
			yj0, yj1, ys = ny-1, -1, -1
		}
		zk0, zk1, zs := 0, nz, 1
		if d.xi < 0 {
			zk0, zk1, zs = nz-1, -1, -1
		}
		cx := 2 * math.Abs(d.mu)
		cy := 2 * math.Abs(d.eta)
		cz := 2 * math.Abs(d.xi)
		denom := k.sigT + cx + cy + cz

		psiX := make([]float64, ny*nz)
		copy(psiX, in)
		psiY := make([]float64, nx*nz)
		psiZ := make([]float64, nx*ny)
		for zk := zk0; zk != zk1; zk += zs {
			for i := range psiY {
				psiY[i] = 0 // vacuum y-faces per z-plane
			}
			for yj := yj0; yj != yj1; yj += ys {
				for xi := xi0; xi != xi1; xi += xs {
					id := k.idx(xi, yj, zk)
					ix := yj + ny*zk
					iy := xi + nx*zk
					iz := xi + nx*yj
					psi := (k.src[id] + cx*psiX[ix] + cy*psiY[iy] + cz*psiZ[iz]) / denom
					// Diamond closure for outgoing faces.
					psiX[ix] = 2*psi - psiX[ix]
					psiY[iy] = 2*psi - psiY[iy]
					psiZ[iz] = 2*psi - psiZ[iz]
					if psiX[ix] < 0 {
						psiX[ix] = 0 // negative-flux fixup
					}
					if psiY[iy] < 0 {
						psiY[iy] = 0
					}
					if psiZ[iz] < 0 {
						psiZ[iz] = 0
					}
					k.phi[id] += d.w * psi
				}
			}
		}
		out = psiX
		k.work(int64(28 * nx * ny * nz))
	})
	return
}

// octantSweep pipelines all ordinates of one octant through the rank row.
func (k *kernel) octantSweep(oct int) {
	k.call(sweepOctantSweep, func() {
		for a := 0; a < 3; a++ {
			d := k.angles[oct*3+a]
			in := k.recvBoundary(d)
			out := k.sweepBlock(d, in)
			k.sendBoundary(d, out)
		}
	})
}

// octants runs the eight octant sweeps of one source iteration.
func (k *kernel) octants() {
	k.call(sweepOctants, func() {
		for oct := 0; oct < 8; oct++ {
			k.octantSweep(oct)
		}
	})
}

// fluxAccumulate folds boundary leakage into the running balance tally.
func (k *kernel) fluxAccumulate() (total float64) {
	k.call(sweepFluxAccumulate, func() {
		for _, p := range k.phi {
			total += p
		}
		k.work(int64(len(k.phi)))
	})
	return
}

// fluxNorm is the local max flux change between source iterations.
func (k *kernel) fluxNorm() (d float64) {
	k.call(sweepFluxNorm, func() {
		for i := range k.phi {
			if e := math.Abs(k.phi[i] - k.phiOld[i]); e > d {
				d = e
			}
		}
		k.work(int64(2 * len(k.phi)))
	})
	return
}

// convergenceTest reduces the flux change globally.
func (k *kernel) convergenceTest() (delta float64) {
	k.call(sweepConvergenceTest, func() {
		delta = k.m.AllreduceF64(mpi.Max, k.fluxNorm())
		k.work(500)
	})
	return
}

// globalBalance verifies particle balance across ranks.
func (k *kernel) globalBalance() (total float64) {
	k.call(sweepGlobalBalance, func() {
		total = k.m.AllreduceF64(mpi.Sum, k.fluxAccumulate())
		k.work(500)
	})
	return
}

// iterationDriver runs source iterations to convergence or the budget.
func (k *kernel) iterationDriver(iters int) (delta float64, done int) {
	k.call(sweepIterationDriver, func() {
		for it := 0; it < iters; it++ {
			k.sourceUpdate()
			k.octants()
			delta = k.convergenceTest()
			done = it + 1
			if delta < 1e-8 {
				return
			}
		}
	})
	return
}

func (k *kernel) timerReport(t0 float64) (elapsed float64) {
	k.call(sweepTimerReport, func() {
		elapsed = k.m.AllreduceF64(mpi.Max, k.m.Wtime()-t0)
		k.work(600)
	})
	return
}

func (k *kernel) output(balance float64, iters int) {
	k.call(sweepOutput, func() {
		_ = fmt.Sprintf("sweep3d: %d iters balance %.5f", iters, balance)
		k.work(3_000)
	})
}

func (k *kernel) cleanup() {
	k.call(sweepCleanup, func() {
		k.m.Barrier()
		k.phi, k.phiOld, k.src = nil, nil, nil
		k.work(500)
	})
}

// runMain is the benchmark body between MPI_Init and MPI_Finalize.
func (k *kernel) runMain() {
	k.call(sweepMain, func() {
		iters := k.readInput()
		k.decompGrid()
		k.initGeom()
		k.initAngles()
		k.initSource()
		k.fluxInit()
		t0 := k.m.Wtime()
		_, done := k.iterationDriver(iters)
		balance := k.globalBalance()
		k.timerReport(t0)
		k.output(balance, done)
		k.cleanup()
	})
}

// funcs is Sweep3d's 21-function table.
var funcs guide.FuncTable

// Call-gate handles, one per function, in table order.
var (
	sweepMain            = funcs.Add("sweep_Main", 48)
	sweepReadInput       = funcs.Add("sweep_ReadInput", 30)
	sweepDecompGrid      = funcs.Add("sweep_DecompGrid", 24)
	sweepInitGeom        = funcs.Add("sweep_InitGeom", 36)
	sweepInitAngles      = funcs.Add("sweep_InitAngles", 44)
	sweepInitSource      = funcs.Add("sweep_InitSource", 40)
	sweepFluxInit        = funcs.Add("sweep_FluxInit", 20)
	sweepIterationDriver = funcs.Add("sweep_IterationDriver", 36)
	sweepSourceUpdate    = funcs.Add("sweep_SourceUpdate", 34)
	sweepOctants         = funcs.Add("sweep_Octants", 22)
	sweepOctantSweep     = funcs.Add("sweep_OctantSweep", 30)
	sweepRecvBoundary    = funcs.Add("sweep_RecvBoundary", 28)
	sweepSweepBlock      = funcs.Add("sweep_SweepBlock", 160)
	sweepSendBoundary    = funcs.Add("sweep_SendBoundary", 26)
	sweepFluxAccumulate  = funcs.Add("sweep_FluxAccumulate", 24)
	sweepFluxNorm        = funcs.Add("sweep_FluxNorm", 26)
	sweepConvergenceTest = funcs.Add("sweep_ConvergenceTest", 22)
	sweepGlobalBalance   = funcs.Add("sweep_GlobalBalance", 22)
	sweepTimerReport     = funcs.Add("sweep_TimerReport", 20)
	sweepOutput          = funcs.Add("sweep_Output", 18)
	sweepCleanup         = funcs.Add("sweep_Cleanup", 16)
)

// App returns the Sweep3d application definition. "Sweep3d has 21
// functions and the Dynamic version instruments all 21 of these", so the
// subset is the entire table. The global problem size is fixed by the
// input (strong scaling), and the MPI version "does not execute correctly
// on a single processor".
func App() *guide.App {
	app := &guide.App{
		Name:        "sweep3d",
		Lang:        guide.MPIF77,
		Funcs:       funcs.Funcs(),
		DefaultArgs: map[string]int{"nx": 64, "ny": 24, "nz": 24, "iters": 4},
		// Every rank updates the source once per outer iteration before
		// the wavefront sweeps begin.
		SyncPoint: "sweep_SourceUpdate",
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			if c.MPI.Size() < 2 {
				panic("sweep3d: the MPI version does not execute correctly on a single processor")
			}
			k := &kernel{c: c, m: c.MPI, rank: c.MPI.Rank(), size: c.MPI.Size()}
			k.runMain()
			c.MPI.Finalize()
		},
	}
	for _, f := range app.Funcs {
		app.Subset = append(app.Subset, f.Name)
	}
	return app
}
