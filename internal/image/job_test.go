package image_test

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/guide"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/vt"
)

// TestJobRanksShareBinary: the ranks of a job that no tool patches run on
// one copy of their binary's words and region programs, and a probe
// installed on one rank, as a DPCL daemon installs it, copies that rank's
// image alone.
func TestJobRanksShareBinary(t *testing.T) {
	app := &guide.App{
		Name:  "toy",
		Lang:  guide.MPIC,
		Funcs: []guide.Func{{Name: "toy_compute", Size: 40}},
		Main: func(c *guide.Ctx) {
			c.MPI.Init()
			c.Call(c.Fn("toy_compute"), func() { c.T.Work(10_000) })
			c.MPI.Finalize()
		},
	}
	bin, err := guide.Build(app, guide.BuildOpts{StaticInstrument: true})
	if err != nil {
		t.Fatal(err)
	}
	s := des.NewScheduler(1)
	j, err := guide.Launch(s, machine.MustNew("ibm-power3"), bin, guide.LaunchOpts{Procs: 3, Hold: true})
	if err != nil {
		t.Fatal(err)
	}
	procs := j.Processes()
	for r, pr := range procs[1:] {
		if pr.Image() == procs[0].Image() || !image.SharesState(pr.Image(), procs[0].Image()) {
			t.Fatalf("rank %d does not run its own header over the binary's shared words and programs", r+1)
		}
	}
	img := procs[1].Image()
	id := img.BindSnippet(vt.BeginSnippet(j.VT(1).FuncDef("toy_compute")))
	h, err := img.InsertProbe(img.MustLookup("toy_compute"), image.EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	if image.SharesState(img, procs[0].Image()) || !image.SharesState(procs[2].Image(), procs[0].Image()) {
		t.Fatal("a probe on rank 1 did not copy rank 1's image alone")
	}
	j.Release()
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	var enters [3]int
	for _, e := range j.Collector().Ordered().AppendTo(nil) {
		if e.Kind == vt.Enter {
			enters[e.Rank]++
		}
	}
	// The compiled-in VT_begin fires on every rank; the probe on rank 1.
	if enters != [3]int{1, 2, 1} {
		t.Fatalf("enters per rank %v, want [1 2 1]", enters)
	}
}
