package image

import (
	"fmt"
	"testing"
	"testing/quick"

	"dynprof/internal/des"
	"dynprof/internal/isa"
)

// fakeCtx implements ExecCtx for tests.
type fakeCtx struct {
	tid     int
	now     des.Time
	charged int64
	lib     Library
}

func (c *fakeCtx) ThreadID() int       { return c.tid }
func (c *fakeCtx) Now() des.Time       { return c.now }
func (c *fakeCtx) Charge(cycles int64) { c.charged += cycles }
func (c *fakeCtx) Library() Library    { return c.lib }

func buildTestImage(t testing.TB) *Image {
	t.Helper()
	b := NewBuilder("test")
	if _, err := b.AddFunc(FuncSpec{Name: "alpha", BodyWords: 10, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(FuncSpec{Name: "beta", BodyWords: 4, Exits: 3}); err != nil {
		t.Fatal(err)
	}
	return b.Build()
}

func TestBuilderLayout(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	// alpha: entry Nop, Body, 10 Work, exit Nop, Ret = 14 words.
	if a.Entry != 0 || a.BodyAt != 1 || len(a.Exits) != 1 || a.Exits[0] != 12 || a.End != 14 {
		t.Fatalf("alpha layout: %+v", a)
	}
	bsym := img.MustLookup("beta")
	if bsym.Entry != 14 || len(bsym.Exits) != 3 {
		t.Fatalf("beta layout: %+v", bsym)
	}
	if img.Word(a.Entry).Op != isa.Nop || img.Word(a.BodyAt).Op != isa.Body {
		t.Fatal("wrong opcodes at probe/body slots")
	}
	if got := len(img.Symbols()); got != 2 {
		t.Fatalf("symbol count = %d", got)
	}
}

func TestBuilderErrors(t *testing.T) {
	b := NewBuilder("bad")
	if _, err := b.AddFunc(FuncSpec{Name: "", Exits: 1}); err == nil {
		t.Error("empty name accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 0}); err == nil {
		t.Error("zero exits accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1, BodyWords: -1}); err == nil {
		t.Error("negative body accepted")
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(FuncSpec{Name: "f", Exits: 1}); err == nil {
		t.Error("duplicate name accepted")
	}
}

func TestLookup(t *testing.T) {
	img := buildTestImage(t)
	if _, ok := img.Lookup("alpha"); !ok {
		t.Error("alpha not found")
	}
	if _, ok := img.Lookup("gamma"); ok {
		t.Error("gamma found but never added")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustLookup on missing symbol did not panic")
		}
	}()
	img.MustLookup("gamma")
}

func TestPristineEntryCost(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	ctx := &fakeCtx{}
	// Unpatched entry: a single Nop then the free Body marker.
	got := img.ExecEntry(a, ctx)
	if got != isa.Nop.Cycles() {
		t.Fatalf("pristine entry cost = %d, want %d", got, isa.Nop.Cycles())
	}
	// Unpatched exit: Nop + Ret.
	got = img.ExecExit(a, 0, ctx)
	if got != isa.Nop.Cycles()+isa.Ret.Cycles() {
		t.Fatalf("pristine exit cost = %d", got)
	}
}

func TestInsertProbeFiresSnippetWhenActive(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	fired := 0
	id := img.BindSnippet(func(ctx ExecCtx) { fired++ })
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	ctx := &fakeCtx{}
	img.ExecEntry(a, ctx)
	if fired != 0 {
		t.Fatal("inactive probe fired")
	}
	h.SetActive(true)
	img.ExecEntry(a, ctx)
	if fired != 1 {
		t.Fatalf("active probe fired %d times, want 1", fired)
	}
	h.SetActive(false)
	img.ExecEntry(a, ctx)
	if fired != 1 {
		t.Fatal("deactivated probe fired")
	}
}

func TestPatchedEntryCostsTrampolineOverhead(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.BindSnippet(func(ctx ExecCtx) {})
	pristine := img.ExecEntry(a, &fakeCtx{})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	patched := img.ExecEntry(a, &fakeCtx{})
	// Patched path: Jmp, SaveRegs, Jmp(chain), SnippetCall, Jmp(back),
	// relocated Nop, RestoreRegs, Jmp back, then original cost again.
	wantMin := isa.Jmp.Cycles() + isa.SaveRegs.Cycles() + isa.RestoreRegs.Cycles() + isa.SnippetCall.Cycles()
	if patched <= pristine || patched < wantMin {
		t.Fatalf("patched cost %d vs pristine %d (want >= %d extra)", patched, pristine, wantMin)
	}
}

func TestExitProbesPerReturnPoint(t *testing.T) {
	img := buildTestImage(t)
	b := img.MustLookup("beta")
	var hits []int
	id := img.BindSnippet(func(ctx ExecCtx) { hits = append(hits, 1) })
	for e := 0; e < 3; e++ {
		h, err := img.InsertProbe(b, ExitPoint, e, id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetActive(true)
	}
	for e := 0; e < 3; e++ {
		img.ExecExit(b, e, &fakeCtx{})
	}
	if len(hits) != 3 {
		t.Fatalf("exit probes fired %d times, want 3", len(hits))
	}
	if _, err := img.InsertProbe(b, ExitPoint, 7, id); err == nil {
		t.Error("out-of-range exit accepted")
	}
}

func TestMiniTrampolineChaining(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	var order []string
	mk := func(name string) int64 {
		id := img.BindSnippet(func(ctx ExecCtx) { order = append(order, name) })
		return id
	}
	h1, _ := img.InsertProbe(a, EntryPoint, 0, mk("first"))
	h2, _ := img.InsertProbe(a, EntryPoint, 0, mk("second"))
	h3, _ := img.InsertProbe(a, EntryPoint, 0, mk("third"))
	for _, h := range []*ProbeHandle{h1, h2, h3} {
		h.SetActive(true)
	}
	if got := img.ChainLen(a, EntryPoint, 0); got != 3 {
		t.Fatalf("chain length = %d, want 3", got)
	}
	img.ExecEntry(a, &fakeCtx{})
	if fmt.Sprint(order) != "[first second third]" {
		t.Fatalf("chain order = %v", order)
	}
	// Removing the middle mini must preserve the rest of the chain.
	order = nil
	if err := h2.Remove(); err != nil {
		t.Fatal(err)
	}
	img.ExecEntry(a, &fakeCtx{})
	if fmt.Sprint(order) != "[first third]" {
		t.Fatalf("after middle removal: %v", order)
	}
}

func TestRemoveLastProbeRestoresPristineImage(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	pristineWord := img.Word(a.Entry)
	pristineCost := img.ExecEntry(a, &fakeCtx{})
	id := img.BindSnippet(func(ctx ExecCtx) {})
	h, err := img.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	if !img.Patched(a, EntryPoint, 0) {
		t.Fatal("probe point not marked patched")
	}
	if err := h.Remove(); err != nil {
		t.Fatal(err)
	}
	if img.Patched(a, EntryPoint, 0) {
		t.Fatal("probe point still patched after removal")
	}
	if img.Word(a.Entry) != pristineWord {
		t.Fatalf("entry word %v, want restored %v", img.Word(a.Entry), pristineWord)
	}
	if got := img.ExecEntry(a, &fakeCtx{}); got != pristineCost {
		t.Fatalf("post-removal cost %d, want pristine %d", got, pristineCost)
	}
	if img.HeapWords() != 0 {
		t.Fatalf("heap words leaked: %d", img.HeapWords())
	}
	if err := h.Remove(); err == nil {
		t.Error("double remove succeeded")
	}
}

func TestInsertProbeRequiresBoundSnippet(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	if _, err := img.InsertProbe(a, EntryPoint, 0, 999); err == nil {
		t.Fatal("unbound snippet accepted")
	}
}

func TestStaticSnippetsCompiledIn(t *testing.T) {
	b := NewBuilder("static")
	var log []string
	if _, err := b.AddFunc(FuncSpec{
		Name: "f", BodyWords: 2, Exits: 2,
		EntrySnippets: []Snippet{func(ctx ExecCtx) { log = append(log, "begin") }},
		ExitSnippets:  []Snippet{func(ctx ExecCtx) { log = append(log, "end") }},
	}); err != nil {
		t.Fatal(err)
	}
	img := b.Build()
	f := img.MustLookup("f")
	img.ExecEntry(f, &fakeCtx{})
	img.ExecExit(f, 1, &fakeCtx{})
	if fmt.Sprint(log) != "[begin end]" {
		t.Fatalf("log = %v", log)
	}
	// Static instrumentation costs the SnippetCall word even when the
	// snippet body does nothing — the Full-Off residual overhead.
	cost := img.ExecEntry(f, &fakeCtx{})
	if cost < isa.SnippetCall.Cycles() {
		t.Fatalf("static entry cost %d too small", cost)
	}
}

func TestCloneIsIndependent(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.BindSnippet(func(ctx ExecCtx) {})
	clone := img.Clone()
	if _, err := img.InsertProbe(a, EntryPoint, 0, id); err != nil {
		t.Fatal(err)
	}
	if clone.Patched(clone.MustLookup("alpha"), EntryPoint, 0) {
		t.Fatal("patching the original affected the clone")
	}
	if clone.Words() == img.Words() {
		t.Fatal("original should have grown a trampoline; clone should not")
	}
	// Clone with existing patch: chain bookkeeping must be deep-copied.
	h2, err := clone.InsertProbe(clone.MustLookup("alpha"), EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := h2.Remove(); err != nil {
		t.Fatal(err)
	}
}

// TestPatchedSymbols: a probe displaces exactly its own probe point.
func TestPatchedSymbols(t *testing.T) {
	img := buildTestImage(t)
	id := img.BindSnippet(func(ctx ExecCtx) {})
	if _, err := img.InsertProbe(img.MustLookup("beta"), ExitPoint, 1, id); err != nil {
		t.Fatal(err)
	}
	for _, s := range img.Symbols() {
		if img.Patched(s, EntryPoint, 0) {
			t.Errorf("%s entry patched", s.Name)
		}
		for e := range s.Exits {
			if got := img.Patched(s, ExitPoint, e); got != (s.Name == "beta" && e == 1) {
				t.Errorf("%s exit %d patched = %v", s.Name, e, got)
			}
		}
	}
}

func TestChargeReachesContext(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.BindSnippet(func(ctx ExecCtx) { ctx.Charge(123) })
	h, _ := img.InsertProbe(a, EntryPoint, 0, id)
	h.SetActive(true)
	ctx := &fakeCtx{tid: 4, now: 9 * des.Second}
	img.ExecEntry(a, ctx)
	if ctx.charged != 123 {
		t.Fatalf("charged = %d", ctx.charged)
	}
}

// Property: inserting then removing any number of probes at any probe
// points leaves the image word-for-word identical to its pristine state.
func TestPatchUnpatchRoundTripProperty(t *testing.T) {
	f := func(points []uint8) bool {
		img := buildTestImage(t)
		a, b := img.MustLookup("alpha"), img.MustLookup("beta")
		pristine := append([]isa.Word(nil), img.words...)
		id := img.BindSnippet(func(ctx ExecCtx) {})
		if len(points) > 24 {
			points = points[:24]
		}
		var handles []*ProbeHandle
		for _, pt := range points {
			var h *ProbeHandle
			var err error
			switch pt % 5 {
			case 0:
				h, err = img.InsertProbe(a, EntryPoint, 0, id)
			case 1:
				h, err = img.InsertProbe(a, ExitPoint, 0, id)
			case 2:
				h, err = img.InsertProbe(b, EntryPoint, 0, id)
			case 3:
				h, err = img.InsertProbe(b, ExitPoint, int(pt)%3, id)
			case 4:
				h, err = img.InsertProbe(b, ExitPoint, 2, id)
			}
			if err != nil {
				return false
			}
			h.SetActive(true)
			handles = append(handles, h)
		}
		// Remove in a scrambled order.
		for i := range handles {
			j := (i*7 + 3) % len(handles)
			handles[i], handles[j] = handles[j], handles[i]
		}
		for _, h := range handles {
			if err := h.Remove(); err != nil {
				return false
			}
		}
		if img.HeapWords() != 0 {
			return false
		}
		for i, w := range pristine {
			if img.words[i] != w {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestOpcodeStrings(t *testing.T) {
	if isa.Jmp.String() != "jmp" || isa.SnippetCall.String() != "snippetcall" {
		t.Fatal("opcode mnemonics wrong")
	}
	w := isa.Word{Op: isa.Jmp, Arg: 77}
	if w.String() != "jmp 77" {
		t.Fatalf("word string = %q", w.String())
	}
	if (isa.Word{Op: isa.Work, Arg: 9}).Cost() != isa.Work.Cycles()+9 {
		t.Fatal("work cost wrong")
	}
}

// TestRegionNumbering: regions are numbered densely in layout order, one
// per entry and one per exit, and every clone gets a slot per region.
func TestRegionNumbering(t *testing.T) {
	img := buildTestImage(t)
	a, b := img.MustLookup("alpha"), img.MustLookup("beta")
	if a.Region != 0 || b.Region != 2 || len(img.progs) != 6 {
		t.Fatalf("alpha region %d, beta region %d, %d program slots; want 0, 2, 6", a.Region, b.Region, len(img.progs))
	}
}

// TestExitRegionsHaveOwnPrograms: each exit of a 3-exit function compiles
// and replays its own program, so a replay never fires another exit's
// probe.
func TestExitRegionsHaveOwnPrograms(t *testing.T) {
	img := buildTestImage(t)
	b := img.MustLookup("beta")
	var log []int
	for e := 0; e < 3; e++ {
		e := e
		id := img.BindSnippet(func(ctx ExecCtx) { log = append(log, e) })
		h, err := img.InsertProbe(b, ExitPoint, e, id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetActive(true)
	}
	order := []int{0, 1, 2, 2, 0, 1, 1, 2, 0}
	costs := make(map[int]int64)
	for _, e := range order {
		cost := img.ExecExit(b, e, &fakeCtx{})
		if prev, ok := costs[e]; ok && prev != cost {
			t.Fatalf("exit %d replay cost %d, compiled cost %d", e, cost, prev)
		}
		costs[e] = cost
	}
	if fmt.Sprint(log) != fmt.Sprint(order) {
		t.Fatalf("fired %v, want %v", log, order)
	}
	seen := make(map[*regionProg]bool)
	for r := b.Region + 1; r <= b.Region+3; r++ {
		p := img.progs[r]
		if p == nil || len(p.steps) != 1 || seen[p] {
			t.Fatalf("exit region %d: program %+v not its own", r, p)
		}
		seen[p] = true
	}
	if img.progs[b.Region] != nil {
		t.Fatal("entry region compiled without being executed")
	}
}

// TestCloneSharesTemplatePrograms: a built image has every region
// compiled, and its pristine clones run those programs on its words
// without writing either; a patched clone compiles its own programs on its
// own words, leaving the template and its sibling clones as they were.
func TestCloneSharesTemplatePrograms(t *testing.T) {
	tmpl := buildTestImage(t)
	a := tmpl.MustLookup("alpha")
	progs := append([]*regionProg(nil), tmpl.progs...)
	for r, p := range progs {
		if p == nil || p.gen != tmpl.gen {
			t.Fatalf("built image has no current program for region %d", r)
		}
	}
	words, gen := append([]isa.Word(nil), tmpl.words...), tmpl.gen
	pristine, patched := tmpl.Clone(), tmpl.Clone()
	want := tmpl.walk(a.Entry, &fakeCtx{}, "alpha", nil)
	if got := pristine.ExecEntry(a, &fakeCtx{}); got != want || !sharesState(pristine, tmpl) {
		t.Fatalf("pristine clone: %d cycles (want %d), shares template %v", got, want, sharesState(pristine, tmpl))
	}
	fired := 0
	id := patched.BindSnippet(func(ctx ExecCtx) { fired++ })
	h, err := patched.InsertProbe(a, EntryPoint, 0, id)
	if err != nil {
		t.Fatal(err)
	}
	h.SetActive(true)
	if got := patched.ExecEntry(a, &fakeCtx{}); got <= want || fired != 1 {
		t.Fatalf("patched clone: %d cycles (pristine %d), probe fired %d times", got, want, fired)
	}
	if sharesState(patched, tmpl) || patched.progs[a.Region] == progs[a.Region] {
		t.Fatal("patched clone still runs the template's words or program")
	}
	for r, p := range tmpl.progs {
		if p != progs[r] {
			t.Fatalf("patching a clone replaced the template's program for region %d", r)
		}
	}
	if tmpl.gen != gen || fmt.Sprint(tmpl.words) != fmt.Sprint(words) || tmpl.Patched(a, EntryPoint, 0) {
		t.Fatal("patching a clone changed the template")
	}
	if !sharesState(pristine, tmpl) || pristine.ExecEntry(a, &fakeCtx{}) != want || fired != 1 {
		t.Fatal("patching a clone changed its pristine sibling")
	}
	// A clone of the patched image shares its words in turn: turning the
	// probe off in one leaves it firing in the other.
	twin := patched.Clone()
	twinWords := fmt.Sprint(twin.words)
	h.SetActive(false)
	twin.ExecEntry(a, &fakeCtx{})
	patched.ExecEntry(a, &fakeCtx{})
	if fired != 2 || fmt.Sprint(twin.words) != twinWords {
		t.Fatalf("probe fired %d times across the twin and the deactivated original (want 2), twin words changed %v",
			fired, fmt.Sprint(twin.words) != twinWords)
	}
}

// selfPatchImage builds the test image with an active probe on alpha's
// entry whose snippet, on its patchAt-th firing, activates a dormant
// second probe: in alpha's own chain, or at beta's entry when other is
// set. log records the firings.
func selfPatchImage(t *testing.T, other bool, patchAt int) (*Image, *[]string) {
	img := buildTestImage(t)
	a, b := img.MustLookup("alpha"), img.MustLookup("beta")
	log := new([]string)
	bind := func(name string, fn func()) int64 {
		id := img.BindSnippet(func(ctx ExecCtx) {
			*log = append(*log, name)
			if fn != nil {
				fn()
			}
		})
		return id
	}
	var dormant *ProbeHandle
	fired := 0
	first, err := img.InsertProbe(a, EntryPoint, 0, bind("first", func() {
		if fired++; fired == patchAt {
			dormant.SetActive(true)
		}
	}))
	if err != nil {
		t.Fatal(err)
	}
	first.SetActive(true)
	target := a
	if other {
		target = b
	}
	if dormant, err = img.InsertProbe(target, EntryPoint, 0, bind("second", nil)); err != nil {
		t.Fatal(err)
	}
	return img, log
}

// sharedPatchImage builds the test image with a compiled-in snippet in
// alpha's prologue that, on its patchAt-th firing, makes the first patch
// of the clone it returns: an active probe at alpha's entry, or at beta's
// when other is set. The clone shares the template's words and programs
// until then, so that patch lands in the middle of a replay. log records
// the firings; the returned template and sibling clone are never patched.
func sharedPatchImage(t *testing.T, other bool, patchAt int) (clone, tmpl, sibling *Image, log *[]string) {
	log = new([]string)
	fired := 0
	patch := func(ctx ExecCtx) {
		*log = append(*log, "static")
		if fired++; fired != patchAt {
			return
		}
		id := clone.BindSnippet(func(ExecCtx) { *log = append(*log, "probe") })
		target := clone.MustLookup("alpha")
		if other {
			target = clone.MustLookup("beta")
		}
		h, err := clone.InsertProbe(target, EntryPoint, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		h.SetActive(true)
	}
	b := NewBuilder("test")
	if _, err := b.AddFunc(FuncSpec{Name: "alpha", BodyWords: 10, Exits: 1, EntrySnippets: []Snippet{patch}}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.AddFunc(FuncSpec{Name: "beta", BodyWords: 4, Exits: 3}); err != nil {
		t.Fatal(err)
	}
	tmpl = b.Build()
	clone, sibling = tmpl.Clone(), tmpl.Clone()
	return clone, tmpl, sibling, log
}

// TestMidReplayPatchFallsBack: a snippet that patches its own region, or
// another one, in the middle of a replay (second firing) or of the walk
// that compiles the region (first firing) leaves the walk exactly as the
// plain interpreter would have it — same firings, same cycles — and the
// next execution compiles afresh. The same holds for a clone that still
// shares its template's programs when a compiled-in snippet makes its
// first patch mid-replay, and the template and sibling clone keep theirs.
func TestMidReplayPatchFallsBack(t *testing.T) {
	for _, tc := range []struct {
		shared  bool
		other   bool
		patchAt int
	}{{false, false, 1}, {false, false, 2}, {false, true, 1}, {false, true, 2},
		{true, false, 1}, {true, false, 2}, {true, true, 1}, {true, true, 2}} {
		var got, want, tmpl, sibling *Image
		var gotLog, wantLog *[]string
		if tc.shared {
			got, tmpl, sibling, gotLog = sharedPatchImage(t, tc.other, tc.patchAt)
			want, _, _, wantLog = sharedPatchImage(t, tc.other, tc.patchAt)
		} else {
			got, gotLog = selfPatchImage(t, tc.other, tc.patchAt)
			want, wantLog = selfPatchImage(t, tc.other, tc.patchAt)
		}
		var progs []*regionProg
		if tmpl != nil {
			progs = append(progs, tmpl.progs...)
		}
		for i := 0; i < 4; i++ {
			for _, name := range []string{"alpha", "beta"} {
				sym := got.MustLookup(name)
				c := got.ExecEntry(sym, &fakeCtx{})
				w := want.walk(sym.Entry, &fakeCtx{}, name, nil)
				if c != w {
					t.Fatalf("%+v run %d %s: %d cycles, interpreter %d", tc, i, name, c, w)
				}
			}
		}
		if fmt.Sprint(*gotLog) != fmt.Sprint(*wantLog) {
			t.Fatalf("%+v: fired %v, interpreter %v", tc, *gotLog, *wantLog)
		}
		if !tc.shared {
			continue
		}
		if sharesState(got, tmpl) || !sharesState(sibling, tmpl) || len(tmpl.tramps) != 0 {
			t.Fatalf("%+v: first patch did not copy the clone's state alone", tc)
		}
		for r, p := range tmpl.progs {
			if p != progs[r] || p.gen != tmpl.gen {
				t.Fatalf("%+v: template program for region %d replaced", tc, r)
			}
		}
	}
}

// TestSetActiveOnRemovedProbeIsNoop: a removed probe's words are freed;
// re-activating its stale handle must neither write them nor invalidate
// the image's compiled programs.
func TestSetActiveOnRemovedProbeIsNoop(t *testing.T) {
	img := buildTestImage(t)
	a := img.MustLookup("alpha")
	id := img.BindSnippet(func(ctx ExecCtx) {})
	keep, _ := img.InsertProbe(a, EntryPoint, 0, id)
	keep.SetActive(true)
	h, _ := img.InsertProbe(a, EntryPoint, 0, id)
	h.SetActive(true)
	if err := h.Remove(); err != nil {
		t.Fatal(err)
	}
	img.ExecEntry(a, &fakeCtx{})
	words, gen := append([]isa.Word(nil), img.words...), img.gen
	for _, on := range []bool{true, false, true} {
		h.SetActive(on)
	}
	if img.gen != gen || fmt.Sprint(img.words) != fmt.Sprint(words) {
		t.Fatal("SetActive on a removed probe changed the image")
	}
}

// TestInsertRemoveCyclesReleaseSnippets: a long-lived process patched over
// and over keeps only the snippets its live probes call. One id bound at
// two points stays bound until both probes are gone, an id whose first
// insert fails is released at once, and 1,000 insert and remove cycles
// leave the snippet table at its built size.
func TestInsertRemoveCyclesReleaseSnippets(t *testing.T) {
	b := NewBuilder("test")
	if _, err := b.AddFunc(FuncSpec{Name: "alpha", BodyWords: 4, Exits: 1,
		EntrySnippets: []Snippet{func(ExecCtx) {}}}); err != nil {
		t.Fatal(err)
	}
	img := b.Build().Clone()
	a := img.MustLookup("alpha")
	fired := 0
	for i := 0; i < 1000; i++ {
		id := img.BindSnippet(func(ExecCtx) { fired++ })
		entry, err := img.InsertProbe(a, EntryPoint, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		exit, err := img.InsertProbe(a, ExitPoint, 0, id)
		if err != nil {
			t.Fatal(err)
		}
		entry.SetActive(true)
		exit.SetActive(true)
		if err := entry.Remove(); err != nil {
			t.Fatal(err)
		}
		if _, ok := img.bound[id]; !ok {
			t.Fatalf("cycle %d: snippet released while the exit probe still calls it", i)
		}
		img.ExecExit(a, 0, &fakeCtx{})
		if err := exit.Remove(); err != nil {
			t.Fatal(err)
		}
		img.ExecEntry(a, &fakeCtx{})
		bad := img.BindSnippet(func(ExecCtx) {})
		if _, err := img.InsertProbe(a, ExitPoint, 7, bad); err == nil {
			t.Fatal("out-of-range exit accepted")
		}
		if _, ok := img.bound[bad]; ok {
			t.Fatalf("cycle %d: a failed insert left its snippet bound", i)
		}
	}
	if fired != 1000 {
		t.Errorf("exit probes fired %d times, want 1000", fired)
	}
	if len(img.bound) != 0 {
		t.Errorf("after 1000 cycles: %d snippets still bound", len(img.bound))
	}
}
