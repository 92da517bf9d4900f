// Package umt98 reimplements the Umt98 ASCI kernel benchmark: an
// unstructured-mesh, deterministic (S_n) solver for the Boltzmann
// transport equation, threaded with OpenMP. "Umt98 contains 44 functions,
// most of which perform initialization. The 6 functions that are
// responsible for most of the functionality and a majority of the
// execution time were selected for Subset and Dynamic."
//
// Being OpenMP, it runs as a single process on one SMP node (1–8 threads
// in the paper); its input fixes the global problem, so time falls as
// threads are added (strong scaling), and there is only one image for a
// dynamic instrumenter to patch (the flat Umt98 line of Figure 9).
package umt98

import (
	"fmt"
	"math"

	"dynprof/internal/guide"
	"dynprof/internal/omp"
	"dynprof/internal/proc"
)

// zone is one unstructured mesh cell: a small polyhedron with neighbour
// links (an index of -1 is a boundary face).
type zone struct {
	volume   float64
	centroid [3]float64
	faces    []int     // neighbour zone ids
	areas    []float64 // face areas
	material int
}

// direction is one discrete ordinate.
type direction struct {
	omega [3]float64
	w     float64
}

type mesh struct {
	zones    []zone
	order    []int // sweep order (one deterministic ordering per run)
	boundary int   // boundary face count
}

type kernel struct {
	c  *guide.Ctx
	rt *omp.Runtime

	msh    *mesh
	angles []direction
	sigT   []float64 // per-material total cross section
	sigS   []float64
	src    []float64 // per-zone external source

	phi    []float64 // scalar flux
	phiOld []float64
	phiT   [][]float64 // per-thread accumulation buffers

	blocks int // zone-block granularity of the hot functions
}

// call routes through the master thread's gate; calls inside parallel
// regions use tcall with the executing team thread.
func (k *kernel) call(f guide.Fn, fn func())                  { k.c.Call(f, fn) }
func (k *kernel) tcall(t *proc.Thread, f guide.Fn, fn func()) { t.Call(k.c.Sym(f), fn) }
func (k *kernel) work(cycles int64)                           { k.c.T.Work(cycles) }

// --- input deck ---------------------------------------------------------

func (k *kernel) parseArgs() (zones, angles, iters int) {
	k.call(umtParseArgs, func() {
		zones = k.c.Arg("zones", 320)
		angles = k.c.Arg("angles", 24)
		iters = k.c.Arg("iters", 4)
		k.work(2_000)
	})
	return
}

func (k *kernel) checkDeck(zones, angles, iters int) {
	k.call(umtCheckDeck, func() {
		if zones < 16 || angles < 8 || iters < 1 {
			panic(fmt.Sprintf("umt98: bad deck: zones=%d angles=%d iters=%d", zones, angles, iters))
		}
		k.work(800)
	})
}

func (k *kernel) inputDeck() (zones, angles, iters int) {
	k.call(umtInputDeck, func() {
		zones, angles, iters = k.parseArgs()
		k.checkDeck(zones, angles, iters)
	})
	return
}

// --- mesh generation (the bulk of the 44 functions) ---------------------

// meshGen builds a deterministic pseudo-unstructured mesh: a jittered
// lattice of polyhedral zones with 4-8 faces each.
func (k *kernel) meshGen(n int) {
	k.call(umtMeshGen, func() {
		k.msh = &mesh{zones: make([]zone, n)}
		k.meshNodes(n)
		k.meshZones(n)
		k.buildAdjacency()
		k.faceAreas()
		k.boundaryFaces()
		k.meshValidate()
	})
}

// meshNodes lays out jittered node positions (zone centroids derive from
// them).
func (k *kernel) meshNodes(n int) {
	k.call(umtMeshNodes, func() {
		state := uint64(12345)
		for i := range k.msh.zones {
			z := &k.msh.zones[i]
			for d := 0; d < 3; d++ {
				state = state*6364136223846793005 + 1442695040888963407
				jitter := float64(state>>40)/(1<<24) - 0.5
				z.centroid[d] = float64(i%8) + 0.3*jitter
			}
		}
		k.work(int64(12 * n))
	})
}

// meshZones assigns volumes and materials.
func (k *kernel) meshZones(n int) {
	k.call(umtMeshZones, func() {
		for i := range k.msh.zones {
			z := &k.msh.zones[i]
			z.volume = k.zoneVolume(i)
			z.material = k.materialAssign(i)
		}
		k.work(int64(4 * n))
	})
}

func (k *kernel) zoneVolume(i int) (v float64) {
	k.call(umtZoneVolume, func() {
		v = 1.0 + 0.25*math.Sin(float64(i)*0.7)
		k.work(60)
	})
	return
}

func (k *kernel) zoneCentroid(i int) (c [3]float64) {
	k.call(umtZoneCentroid, func() {
		c = k.msh.zones[i].centroid
		k.work(30)
	})
	return
}

func (k *kernel) materialAssign(i int) (m int) {
	k.call(umtMaterialAssign, func() {
		m = 0
		if i%5 == 0 {
			m = 1
		}
		k.work(26)
	})
	return
}

// buildAdjacency links each zone to 4-8 pseudo-random neighbours with a
// bias toward nearby ids (an unstructured connectivity pattern).
func (k *kernel) buildAdjacency() {
	k.call(umtBuildAdjacency, func() {
		n := len(k.msh.zones)
		state := uint64(777)
		for i := range k.msh.zones {
			z := &k.msh.zones[i]
			nf := 4 + i%5
			z.faces = make([]int, nf)
			for f := 0; f < nf; f++ {
				state = state*2862933555777941757 + 3037000493
				off := int(state%17) - 8
				nb := i + off
				if nb < 0 || nb >= n || nb == i {
					nb = -1 // boundary face
				}
				z.faces[f] = nb
			}
		}
		k.work(int64(20 * n))
	})
}

func (k *kernel) faceAreas() {
	k.call(umtFaceAreas, func() {
		for i := range k.msh.zones {
			z := &k.msh.zones[i]
			z.areas = make([]float64, len(z.faces))
			for f := range z.areas {
				z.areas[f] = 0.5 + 0.1*math.Cos(float64(i+f))
			}
		}
		k.work(int64(8 * len(k.msh.zones)))
	})
}

func (k *kernel) boundaryFaces() {
	k.call(umtBoundaryFaces, func() {
		count := 0
		for i := range k.msh.zones {
			for _, nb := range k.msh.zones[i].faces {
				if nb < 0 {
					count++
				}
			}
		}
		k.msh.boundary = count
		k.work(int64(3 * len(k.msh.zones)))
	})
}

func (k *kernel) meshValidate() {
	k.call(umtMeshValidate, func() {
		for i := range k.msh.zones {
			z := &k.msh.zones[i]
			if z.volume <= 0 || len(z.faces) < 4 {
				panic(fmt.Sprintf("umt98: degenerate zone %d", i))
			}
			if len(z.faces) != len(z.areas) {
				panic(fmt.Sprintf("umt98: zone %d faces/areas mismatch", i))
			}
		}
		k.work(int64(2 * len(k.msh.zones)))
	})
}

// reorderZones builds the sweep ordering (ascending projected centroid —
// a stand-in for the real topological sort per ordinate).
func (k *kernel) reorderZones() {
	k.call(umtReorderZones, func() {
		n := len(k.msh.zones)
		k.msh.order = make([]int, n)
		for i := range k.msh.order {
			k.msh.order[i] = i
		}
		// Deterministic shuffle keyed by centroid projection.
		for i := n - 1; i > 0; i-- {
			c := k.msh.zones[i].centroid
			j := int(math.Abs(c[0]+2*c[1]+3*c[2])*1000) % (i + 1)
			k.msh.order[i], k.msh.order[j] = k.msh.order[j], k.msh.order[i]
		}
		k.work(int64(12 * n))
	})
}

func (k *kernel) sweepOrder() (order []int) {
	k.call(umtSweepOrder, func() {
		order = k.msh.order
		k.work(40)
	})
	return
}

func (k *kernel) meshStats() (zones, faces int) {
	k.call(umtMeshStats, func() {
		zones = len(k.msh.zones)
		for i := range k.msh.zones {
			faces += len(k.msh.zones[i].faces)
		}
		k.work(int64(zones))
	})
	return
}

// --- angle sets and material data ---------------------------------------

func (k *kernel) angleSetInit(n int) {
	k.call(umtAngleSetInit, func() {
		k.angles = make([]direction, n)
		for a := range k.angles {
			theta := math.Pi * (float64(a) + 0.5) / float64(n)
			phi := 2 * math.Pi * float64(a*7%n) / float64(n)
			k.angles[a].omega = [3]float64{
				math.Sin(theta) * math.Cos(phi),
				math.Sin(theta) * math.Sin(phi),
				math.Cos(theta),
			}
		}
		k.angleWeights()
		k.work(int64(20 * n))
	})
}

func (k *kernel) angleWeights() {
	k.call(umtAngleWeights, func() {
		w := 1.0 / float64(len(k.angles))
		for a := range k.angles {
			k.angles[a].w = w
		}
		k.work(int64(2 * len(k.angles)))
	})
}

func (k *kernel) crossSections() {
	k.call(umtCrossSections, func() {
		k.sigT = []float64{1.0, 2.5}
		k.sigS = []float64{0.5, 0.9}
		k.work(400)
	})
}

func (k *kernel) sourceInit() {
	k.call(umtSourceInit, func() {
		k.src = make([]float64, len(k.msh.zones))
		for i := range k.src {
			k.src[i] = 1.0
			if k.msh.zones[i].material == 1 {
				k.src[i] = 3.0
			}
		}
		k.work(int64(2 * len(k.src)))
	})
}

func (k *kernel) fluxAlloc() {
	k.call(umtFluxAlloc, func() {
		n := len(k.msh.zones)
		k.phi = make([]float64, n)
		k.phiOld = make([]float64, n)
		k.work(int64(n / 2))
	})
}

func (k *kernel) scratchAlloc() {
	k.call(umtScratchAlloc, func() {
		k.phiT = make([][]float64, k.rt.NumThreads())
		for t := range k.phiT {
			k.phiT[t] = make([]float64, len(k.msh.zones))
		}
		k.work(int64(len(k.msh.zones)))
	})
}

func (k *kernel) threadSetup() {
	k.call(umtThreadSetup, func() {
		k.blocks = 4
		k.logLine(fmt.Sprintf("team of %d threads", k.rt.NumThreads()))
		k.work(600)
	})
}

// --- the six hot functions ----------------------------------------------

// faceFlux gathers upstream angular flux into a block of zones. Hot.
func (k *kernel) faceFlux(t *proc.Thread, psi []float64, lo, hi int, d direction) (in []float64) {
	k.tcall(t, umtFaceFlux, func() {
		in = make([]float64, hi-lo)
		for oi := lo; oi < hi; oi++ {
			z := &k.msh.zones[k.msh.order[oi]]
			acc := 0.0
			for f, nb := range z.faces {
				if nb >= 0 {
					acc += z.areas[f] * psi[nb]
				}
			}
			in[oi-lo] = acc
		}
		t.Work(int64(30 * (hi - lo)))
	})
	return
}

// zoneSolve computes the angular flux for a block of zones in sweep
// order (upwind closure against the gathered incoming flux). Hot.
func (k *kernel) zoneSolve(t *proc.Thread, psi []float64, lo, hi int, d direction, in []float64) {
	k.tcall(t, umtZoneSolve, func() {
		for oi := lo; oi < hi; oi++ {
			zi := k.msh.order[oi]
			z := &k.msh.zones[zi]
			sig := k.sigT[z.material]
			area := 0.0
			for _, a := range z.areas {
				area += a
			}
			psi[zi] = (k.src[zi]*z.volume + in[oi-lo]) / (sig*z.volume + area)
		}
		t.Work(int64(45 * (hi - lo)))
	})
}

// fluxAccum folds one ordinate's angular flux into the thread-local
// scalar flux tally. Hot.
func (k *kernel) fluxAccum(t *proc.Thread, tid int, psi []float64, d direction) {
	k.tcall(t, umtFluxAccum, func() {
		buf := k.phiT[tid]
		for i, p := range psi {
			buf[i] += d.w * p
		}
		t.Work(int64(6 * len(psi)))
	})
}

// sweepAngle processes one ordinate: block-wise gather, solve, tally. Hot.
func (k *kernel) sweepAngle(t *proc.Thread, tid, a int) {
	k.tcall(t, umtSweepAngle, func() {
		d := k.angles[a]
		n := len(k.msh.zones)
		psi := make([]float64, n)
		per := (n + k.blocks - 1) / k.blocks
		for lo := 0; lo < n; lo += per {
			hi := lo + per
			if hi > n {
				hi = n
			}
			in := k.faceFlux(t, psi, lo, hi, d)
			k.zoneSolve(t, psi, lo, hi, d, in)
		}
		k.fluxAccum(t, tid, psi, d)
	})
}

// angleLoop is the threaded sweep over the ordinate set. Hot.
func (k *kernel) angleLoop(t *proc.Thread, tid int) {
	k.tcall(t, umtAngleLoop, func() {
		lo, hi := omp.ForStatic(0, len(k.angles), tid, k.rt.NumThreads())
		for a := lo; a < hi; a++ {
			k.sweepAngle(t, tid, a)
		}
	})
}

// scatterSource rebuilds the emission density from the latest flux. Hot.
func (k *kernel) scatterSource() {
	k.call(umtScatterSource, func() {
		for i := range k.src {
			m := k.msh.zones[i].material
			base := 1.0
			if m == 1 {
				base = 3.0
			}
			k.src[i] = base + k.sigS[m]*k.phi[i]
		}
		k.work(int64(6 * len(k.src)))
	})
}

// --- iteration driver and diagnostics ------------------------------------

// regionDriver runs one threaded sweep region and reduces the tallies.
func (k *kernel) regionDriver() {
	k.call(umtRegionDriver, func() {
		copy(k.phiOld, k.phi)
		for i := range k.phi {
			k.phi[i] = 0
		}
		for t := range k.phiT {
			for i := range k.phiT[t] {
				k.phiT[t][i] = 0
			}
		}
		k.rt.Parallel(k.c.T, "sweep", func(t *proc.Thread, tid int) {
			k.angleLoop(t, tid)
		})
		// Serial reduction of the per-thread tallies.
		for t := range k.phiT {
			for i, v := range k.phiT[t] {
				k.phi[i] += v
			}
		}
		k.work(int64(len(k.phi) * len(k.phiT)))
	})
}

func (k *kernel) convergenceNorm() (d float64) {
	k.call(umtConvergenceNorm, func() {
		for i := range k.phi {
			if e := math.Abs(k.phi[i] - k.phiOld[i]); e > d {
				d = e
			}
		}
		k.work(int64(2 * len(k.phi)))
	})
	return
}

func (k *kernel) converged(d float64) (ok bool) {
	k.call(umtConverged, func() { ok = d < 1e-9; k.work(30) })
	return
}

func (k *kernel) energyTally() (e float64) {
	k.call(umtEnergyTally, func() {
		for i, p := range k.phi {
			e += p * k.msh.zones[i].volume
		}
		k.work(int64(2 * len(k.phi)))
	})
	return
}

func (k *kernel) balanceCheck() {
	k.call(umtBalanceCheck, func() {
		if k.energyTally() <= 0 {
			panic("umt98: no energy in the system")
		}
		_ = float64(k.msh.boundary) * 0.01 // boundary leakage tally
		k.work(200)
	})
}

func (k *kernel) validate() {
	k.call(umtValidate, func() {
		for i, p := range k.phi {
			if p < 0 || math.IsNaN(p) {
				panic(fmt.Sprintf("umt98: bad flux at zone %d: %v", i, p))
			}
		}
		k.work(int64(len(k.phi)))
	})
}

// iterDriver runs source iterations.
func (k *kernel) iterDriver(iters int) (done int) {
	k.call(umtIterDriver, func() {
		for it := 0; it < iters; it++ {
			k.regionDriver()
			k.scatterSource()
			done = it + 1
			if k.converged(k.convergenceNorm()) {
				return
			}
		}
	})
	return
}

func (k *kernel) timerStart() (t0 float64) {
	k.call(umtTimerStart, func() { t0 = k.c.T.Now().Seconds(); k.work(200) })
	return
}

func (k *kernel) timerStop(t0 float64) (el float64) {
	k.call(umtTimerStop, func() { el = k.c.T.Now().Seconds() - t0; k.work(200) })
	return
}

func (k *kernel) timerReport(el float64) {
	k.call(umtTimerReport, func() {
		_ = fmt.Sprintf("umt98: %.4fs on %d threads", el, k.rt.NumThreads())
		k.work(1_200)
	})
}

func (k *kernel) logLine(s string) {
	k.call(umtLogLine, func() { _ = len(s); k.work(150) })
}

func (k *kernel) memReport() (bytes int) {
	k.call(umtMemReport, func() {
		bytes = 8 * (len(k.phi)*2 + len(k.src) + len(k.phiT)*len(k.phi))
		k.logLine(fmt.Sprintf("memory %d bytes", bytes))
		k.work(400)
	})
	return
}

func (k *kernel) output(iters int) {
	k.call(umtOutput, func() {
		sum := 0.0
		for _, p := range k.phi {
			sum += p
		}
		k.logLine(fmt.Sprintf("done after %d iterations, checksum %.5f", iters, sum))
		k.work(900 + int64(len(k.phi)))
	})
}

func (k *kernel) cleanup() {
	k.call(umtCleanup, func() {
		k.phiT = nil
		k.work(300)
	})
}

// runMain is the benchmark body (after VT_init in main).
func (k *kernel) runMain() {
	k.call(umtMain, func() {
		k.logLine("UMT98 Boltzmann transport, unstructured mesh")
		zones, angles, iters := k.inputDeck()
		k.meshGen(zones)
		k.reorderZones()
		_ = k.sweepOrder()
		k.meshStats()
		_ = k.zoneCentroid(0)
		k.angleSetInit(angles)
		k.crossSections()
		k.sourceInit()
		k.fluxAlloc()
		k.scratchAlloc()
		k.threadSetup()
		t0 := k.timerStart()
		done := k.iterDriver(iters)
		el := k.timerStop(t0)
		k.balanceCheck()
		k.validate()
		k.memReport()
		k.timerReport(el)
		k.output(done)
		k.cleanup()
	})
}

// funcs is Umt98's 44-function table.
var funcs guide.FuncTable

// Call-gate handles, one per function, in table order.
var (
	umtMain            = funcs.Add("umt_Main", 50)
	umtInputDeck       = funcs.Add("umt_InputDeck", 16)
	umtParseArgs       = funcs.Add("umt_ParseArgs", 18)
	umtCheckDeck       = funcs.Add("umt_CheckDeck", 14)
	umtMeshGen         = funcs.Add("umt_MeshGen", 30)
	umtMeshNodes       = funcs.Add("umt_MeshNodes", 26)
	umtMeshZones       = funcs.Add("umt_MeshZones", 22)
	umtZoneVolume      = funcs.Add("umt_ZoneVolume", 12)
	umtZoneCentroid    = funcs.Add("umt_ZoneCentroid", 10)
	umtMaterialAssign  = funcs.Add("umt_MaterialAssign", 10)
	umtBuildAdjacency  = funcs.Add("umt_BuildAdjacency", 34)
	umtFaceAreas       = funcs.Add("umt_FaceAreas", 20)
	umtBoundaryFaces   = funcs.Add("umt_BoundaryFaces", 16)
	umtMeshValidate    = funcs.Add("umt_MeshValidate", 18)
	umtReorderZones    = funcs.Add("umt_ReorderZones", 24)
	umtSweepOrder      = funcs.Add("umt_SweepOrder", 8)
	umtMeshStats       = funcs.Add("umt_MeshStats", 12)
	umtAngleSetInit    = funcs.Add("umt_AngleSetInit", 28)
	umtAngleWeights    = funcs.Add("umt_AngleWeights", 12)
	umtCrossSections   = funcs.Add("umt_CrossSections", 10)
	umtSourceInit      = funcs.Add("umt_SourceInit", 16)
	umtFluxAlloc       = funcs.Add("umt_FluxAlloc", 12)
	umtScratchAlloc    = funcs.Add("umt_ScratchAlloc", 14)
	umtThreadSetup     = funcs.Add("umt_ThreadSetup", 10)
	umtFaceFlux        = funcs.Add("umt_FaceFlux", 36)
	umtZoneSolve       = funcs.Add("umt_ZoneSolve", 42)
	umtFluxAccum       = funcs.Add("umt_FluxAccum", 20)
	umtSweepAngle      = funcs.Add("umt_SweepAngle", 30)
	umtAngleLoop       = funcs.Add("umt_AngleLoop", 18)
	umtScatterSource   = funcs.Add("umt_ScatterSource", 22)
	umtRegionDriver    = funcs.Add("umt_RegionDriver", 32)
	umtConvergenceNorm = funcs.Add("umt_ConvergenceNorm", 18)
	umtConverged       = funcs.Add("umt_Converged", 8)
	umtEnergyTally     = funcs.Add("umt_EnergyTally", 16)
	umtBalanceCheck    = funcs.Add("umt_BalanceCheck", 12)
	umtValidate        = funcs.Add("umt_Validate", 14)
	umtIterDriver      = funcs.Add("umt_IterDriver", 20)
	umtTimerStart      = funcs.Add("umt_TimerStart", 8)
	umtTimerStop       = funcs.Add("umt_TimerStop", 8)
	umtTimerReport     = funcs.Add("umt_TimerReport", 10)
	umtLogLine         = funcs.Add("umt_LogLine", 8)
	umtMemReport       = funcs.Add("umt_MemReport", 12)
	umtOutput          = funcs.Add("umt_Output", 12)
	umtCleanup         = funcs.Add("umt_Cleanup", 8)
)

// App returns the Umt98 application definition.
func App() *guide.App {
	return &guide.App{
		Name:  "umt98",
		Lang:  guide.OMPF77,
		Funcs: funcs.Funcs(),
		// The 6 functions responsible for most of the functionality and
		// the majority of the (inclusive) execution time: the sweep and
		// iteration drivers. The per-block kernels (ZoneSolve/FaceFlux/
		// FluxAccum) carry the call volume.
		Subset: []string{
			"umt_IterDriver", "umt_RegionDriver", "umt_AngleLoop",
			"umt_SweepAngle", "umt_ScatterSource", "umt_ConvergenceNorm",
		},
		DefaultArgs: map[string]int{"zones": 320, "angles": 24, "iters": 4},
		// The master thread enters the region driver once per outer
		// iteration, outside any parallel region.
		SyncPoint: "umt_RegionDriver",
		Main: func(c *guide.Ctx) {
			k := &kernel{c: c, rt: c.OMP}
			k.runMain()
		},
	}
}
