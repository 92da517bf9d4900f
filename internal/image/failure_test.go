package image

import (
	"testing"

	"dynprof/internal/isa"
)

// Failure injection: corrupting a patched image must fail loudly, not
// silently misprofile.

func TestRunawayJumpDetected(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	// Corrupt the trampoline: make its back-jump point at itself.
	img.words[a.Entry] = isa.Word{Op: isa.Jmp, Arg: int64(a.Entry)}
	defer func() {
		if recover() == nil {
			t.Error("jump cycle executed forever instead of panicking")
		}
	}()
	img.ExecEntry(a, &fakeCtx{})
}

func TestFreedTrampolineExecutionDetected(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.NewSnippetID()
	img.BindSnippet(id, func(ctx ExecCtx) {})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	// Simulate a stale jump into a freed trampoline: remember the base
	// address, remove the probe, then re-plant a jump to the dead code.
	base := Addr(img.Words() - baseWords - miniWords)
	if err := h.Remove(); err != nil {
		t.Fatal(err)
	}
	img.words[a.Entry] = isa.Word{Op: isa.Jmp, Arg: int64(base)}
	defer func() {
		if recover() == nil {
			t.Error("executing freed trampoline memory did not panic")
		}
	}()
	img.ExecEntry(a, &fakeCtx{})
}

func TestUnboundStaticSnippetDetected(t *testing.T) {
	b := NewBuilder("t")
	id := b.ReserveSnippetID()
	if _, err := b.AddFunc(FuncSpec{Name: "f", BodyWords: 1, Exits: 1, EntrySnippets: []int64{id}}); err != nil {
		t.Fatal(err)
	}
	img := b.Build() // snippet never bound: a linker error in real life
	defer func() {
		if recover() == nil {
			t.Error("unbound snippet executed without panicking")
		}
	}()
	img.ExecEntry(img.MustLookup("f"), &fakeCtx{})
}

func TestOutOfRangeAddressDetected(t *testing.T) {
	img := buildTestImage(t)
	defer func() {
		if recover() == nil {
			t.Error("out-of-range fetch did not panic")
		}
	}()
	img.Word(Addr(img.Words() + 100))
}
