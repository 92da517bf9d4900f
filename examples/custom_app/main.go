// Custom application: bring your own MPI code to the toolchain. This
// defines a small conjugate-gradient-style iteration from scratch, compiles
// it with the Guide compiler under two policies, and compares the
// perturbation — the workflow a new user follows to evaluate
// instrumentation strategies for their own application.
package main

import (
	"fmt"
	"log"

	"dynprof/internal/des"
	"dynprof/internal/exp"
	"dynprof/internal/guide"
	"dynprof/internal/machine"
	"dynprof/internal/mpi"
)

// myApp defines the application: a function table and a main.
func myApp() *guide.App {
	return &guide.App{
		Name: "mycg",
		Lang: guide.MPIC,
		Funcs: []guide.Func{
			{Name: "cg_MatVec", Size: 60},
			{Name: "cg_Dot", Size: 20},
			{Name: "cg_Axpy", Size: 20},
			{Name: "cg_Halo", Size: 30},
			{Name: "cg_Iterate", Size: 40},
		},
		Subset:      []string{"cg_Iterate"},
		DefaultArgs: map[string]int{"n": 4096, "iters": 50},
		Main: func(c *guide.Ctx) {
			// Resolve each function's call-gate handle once per process.
			fMatVec, fDot, fAxpy := c.Fn("cg_MatVec"), c.Fn("cg_Dot"), c.Fn("cg_Axpy")
			fHalo, fIterate := c.Fn("cg_Halo"), c.Fn("cg_Iterate")
			c.MPI.Init()
			n := c.Arg("n", 1024)
			x := make([]float64, n)
			r := make([]float64, n)
			for i := range r {
				r[i] = 1
			}
			for it := 0; it < c.Arg("iters", 10); it++ {
				c.Call(fIterate, func() {
					c.Call(fHalo, func() {
						right := (c.MPI.Rank() + 1) % c.MPI.Size()
						left := (c.MPI.Rank() + c.MPI.Size() - 1) % c.MPI.Size()
						if c.MPI.Size() > 1 {
							c.MPI.Sendrecv(right, 1, 8*64, nil, left, 1)
						}
					})
					c.Call(fMatVec, func() {
						for i := 1; i < n-1; i++ {
							x[i] = 2*r[i] - 0.5*(r[i-1]+r[i+1])
						}
						c.T.Work(int64(6 * n))
					})
					var dot float64
					c.Call(fDot, func() {
						for i := range x {
							dot += x[i] * r[i]
						}
						dot = c.MPI.AllreduceF64(mpi.Sum, dot)
						c.T.Work(int64(2 * n))
					})
					c.Call(fAxpy, func() {
						alpha := 1.0 / (1.0 + dot)
						for i := range r {
							r[i] -= alpha * x[i]
						}
						c.T.Work(int64(2 * n))
					})
				})
			}
			c.MPI.Finalize()
		},
	}
}

func main() {
	app := myApp()
	for _, policy := range []exp.StaticPolicy{exp.None, exp.Full, exp.Dynamic} {
		res, err := exp.Run(exp.RunSpec{AppDef: app, Policy: policy, CPUs: 8, Seed: 99})
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-8s %8.4f s   trace %7d bytes\n",
			res.Policy, res.Elapsed.Seconds(), res.TraceBytes)
	}

	// The same application also runs standalone, without any tooling.
	bin, err := guide.Build(app, guide.BuildOpts{})
	if err != nil {
		log.Fatal(err)
	}
	s := des.NewScheduler(99)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 8})
	if err != nil {
		log.Fatal(err)
	}
	if err := s.Run(); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("standalone run: %.4f s\n", j.MainElapsed().Seconds())
}
