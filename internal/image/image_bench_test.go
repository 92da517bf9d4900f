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
// 199-function image, the size of smg98's: one op binds, activates and
// removes an entry probe on each of 62 functions spread over the image (as
// many as smg98's default subset), dynprof's per-function insertion cost on
// the host side. Each probe binds its own snippet, as a DPCL install does,
// and its removal releases the binding.
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
	snippet := func(ExecCtx) {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for k := 0; k < patched; k++ {
			id := img.BindSnippet(snippet)
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

// BenchmarkProbeRemoveMany measures tearing down a fully patched image, as
// a session close or a recovery does: one op binds and inserts an entry
// probe and every exit probe on all 199 functions of an smg98-sized image,
// each with its own snippet, then removes them all while the rest are
// still live. The release of a binding must not grow with the number of
// live probes.
func BenchmarkProbeRemoveMany(b *testing.B) {
	const funcs = 199
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
	snippet := func(ExecCtx) {}
	var hs []*ProbeHandle
	insert := func(sym *Symbol, kind PointKind, exit int) {
		h, err := img.InsertProbe(sym, kind, exit, img.BindSnippet(snippet))
		if err != nil {
			b.Fatal(err)
		}
		h.SetActive(true)
		hs = append(hs, h)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		hs = hs[:0]
		for _, sym := range syms {
			insert(sym, EntryPoint, 0)
			for e := range sym.Exits {
				insert(sym, ExitPoint, e)
			}
		}
		for _, h := range hs {
			if err := h.Remove(); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(hs)), "probes")
}
