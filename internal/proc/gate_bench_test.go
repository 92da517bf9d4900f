package proc_test

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
	"dynprof/internal/vt"
)

// BenchmarkCallGate times one traversal of the call gate (entry region,
// empty body, exit region) for a pristine function, for one whose entry
// is displaced into a trampoline with an inactive mini-trampoline, and for
// one with active VT_begin/VT_end snippets at entry and exit, as dynprof
// installs them. The gate itself allocates nothing.
func BenchmarkCallGate(b *testing.B) {
	for _, bc := range []struct {
		name  string
		patch func(b *testing.B, img *image.Image, sym *image.Symbol, v *vt.Ctx)
	}{
		{"pristine", func(*testing.B, *image.Image, *image.Symbol, *vt.Ctx) {}},
		{"inactive-mini", func(b *testing.B, img *image.Image, sym *image.Symbol, v *vt.Ctx) {
			insert(b, img, sym, image.EntryPoint, vt.BeginSnippet(v.FuncDef(sym.Name)), false)
		}},
		{"active-begin-end", func(b *testing.B, img *image.Image, sym *image.Symbol, v *vt.Ctx) {
			id := v.FuncDef(sym.Name)
			insert(b, img, sym, image.EntryPoint, vt.BeginSnippet(id), true)
			insert(b, img, sym, image.ExitPoint, vt.EndSnippet(id), true)
		}},
	} {
		b.Run(bc.name, func(b *testing.B) {
			bl := image.NewBuilder("bench")
			sym, err := bl.AddFunc(image.FuncSpec{Name: "f", BodyWords: 16, Exits: 1})
			if err != nil {
				b.Fatal(err)
			}
			img := bl.Build()
			v := vt.NewCtx(vt.Options{Collector: vt.NewCollector(), CountOnly: true})
			v.Initialize(nil)
			bc.patch(b, img, sym, v)
			s := des.NewScheduler(1)
			pr := proc.NewProcess(s, machine.MustNew("ibm-power3"), "bench", 0, 0, img)
			pr.SetLibrary(v)
			pr.Start(func(th *proc.Thread) {
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					th.Call(sym, nil)
				}
				b.StopTimer()
			})
			if err := s.Run(); err != nil {
				b.Fatal(err)
			}
		})
	}
}

// insert patches a probe running fn at sym's entry or first exit.
func insert(b *testing.B, img *image.Image, sym *image.Symbol, kind image.PointKind, fn image.Snippet, active bool) {
	id := img.BindSnippet(fn)
	h, err := img.InsertProbe(sym, kind, 0, id)
	if err != nil {
		b.Fatal(err)
	}
	h.SetActive(active)
}
