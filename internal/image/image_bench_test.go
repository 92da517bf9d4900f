package image

import (
	"fmt"
	"testing"
)

// BenchmarkTrampolineExecution measures the simulated-image cost of an
// unpatched call gate versus one displaced into a base+mini trampoline
// chain (the Figure 1 mechanism itself). cycles is the virtual cost of
// one entry; ns/op is the interpreter's host cost.
func BenchmarkTrampolineExecution(b *testing.B) {
	for _, chain := range []int{0, 1, 4} {
		name := "pristine"
		if chain > 0 {
			name = fmt.Sprintf("patched-%d", chain)
		}
		b.Run(name, func(b *testing.B) {
			bl := NewBuilder("micro")
			sym, err := bl.AddFunc(FuncSpec{Name: "f", BodyWords: 16, Exits: 1})
			if err != nil {
				b.Fatal(err)
			}
			img := bl.Build()
			id := img.BindSnippet(func(ExecCtx) {})
			for i := 0; i < chain; i++ {
				h, err := img.InsertProbe(sym, EntryPoint, 0, id)
				if err != nil {
					b.Fatal(err)
				}
				h.SetActive(true)
			}
			ctx := &fakeCtx{}
			var cycles int64
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				cycles = img.ExecEntry(sym, ctx)
			}
			b.ReportMetric(float64(cycles), "cycles")
		})
	}
}

// BenchmarkProbeInsertRemove measures patch/unpatch round trips on a
// 199-function image, the size of smg98's: one op activates and removes
// an entry probe on each of 62 functions spread over the image (as many
// as smg98's default subset), dynprof's per-function insertion cost on the
// host side.
func BenchmarkProbeInsertRemove(b *testing.B) {
	const funcs, patched = 199, 62
	bl := NewBuilder("smg98-sized")
	syms := make([]*Symbol, funcs)
	for i := range syms {
		sym, err := bl.AddFunc(FuncSpec{Name: fmt.Sprintf("f%03d", i), BodyWords: 8 + i%32, Exits: 1 + i%3})
		if err != nil {
			b.Fatal(err)
		}
		syms[i] = sym
	}
	img := bl.Build()
	id := img.BindSnippet(func(ExecCtx) {})
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < patched; k++ {
			h, err := img.InsertProbe(syms[k*funcs/patched], EntryPoint, 0, id)
			if err != nil {
				b.Fatal(err)
			}
			h.SetActive(true)
			if err := h.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	}
}
