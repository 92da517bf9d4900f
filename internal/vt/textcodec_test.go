package vt

import (
	"bytes"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"dynprof/internal/des"
)

// genNames is the function-name pool of genTextCollector: repeated names,
// names that collide with the "(root)" caller and the func#N fallback,
// and names with inner, repeated and Unicode whitespace.
var genNames = []string{
	"main", "solve", "(root)", "func#3", "halo exchange", "a  b", "fünf",
	"nb\u00a0sp", "tab\tname", "x",
}

// genTextCollector builds a random verbatim collector: every Kind
// (occasionally an undefined one), unknown function ids, the same name
// under several ids and ranks, negative and extreme A/B, out-of-order
// batches that make several segments, and negative times.
func genTextCollector(rng *rand.Rand) *Collector {
	col := NewCollector()
	ranks := []int32{0, 1, 2, 3, -1, math.MaxInt32}
	for _, r := range ranks[:1+rng.Intn(len(ranks))] {
		table := make(map[int32]string)
		for i := rng.Intn(6); i > 0; i-- {
			table[int32(rng.Intn(8)-1)] = genNames[rng.Intn(len(genNames))]
		}
		col.AddFuncTable(r, table)
	}
	badKinds := rng.Intn(4) == 0
	extremes := []int64{math.MinInt64, math.MaxInt64, -1, 0}
	for batch := rng.Intn(5); batch >= 0; batch-- {
		at := des.Time(rng.Int63n(1000) - 100)
		evs := make([]Event, rng.Intn(40))
		for i := range evs {
			at += des.Time(rng.Intn(3))
			k := Kind(rng.Intn(len(kindNames)))
			if badKinds && rng.Intn(10) == 0 {
				k = Kind(len(kindNames) + rng.Intn(3))
			}
			evs[i] = Event{
				At:   at,
				Rank: ranks[rng.Intn(len(ranks))],
				TID:  int32(rng.Intn(3)),
				Kind: k,
				ID:   int32(rng.Intn(10) - 2),
				A:    rng.Int63n(2000) - 1000,
				B:    rng.Int63n(1<<40) - 1<<39,
			}
			if rng.Intn(8) == 0 {
				evs[i].A = extremes[rng.Intn(len(extremes))]
				evs[i].B = extremes[rng.Intn(len(extremes))]
			}
		}
		col.Append(evs)
	}
	return col
}

// checkReadersAgree parses input with ReadTrace and refReadTrace and
// requires the same error text, or the same events and function tables.
func checkReadersAgree(t *testing.T, input []byte) {
	t.Helper()
	want, werr := refReadTrace(bytes.NewReader(input))
	got, gerr := ReadTrace(bytes.NewReader(input))
	if (werr == nil) != (gerr == nil) || (werr != nil && werr.Error() != gerr.Error()) {
		t.Fatalf("ReadTrace(%q): error %v, reference %v", input, gerr, werr)
	}
	if (want == nil) != (got == nil) {
		t.Fatalf("ReadTrace(%q): collector %v, reference %v", input, got != nil, want != nil)
	}
	if want == nil {
		return
	}
	defer want.Release()
	defer got.Release()
	if !reflect.DeepEqual(got.Events(), want.Events()) {
		t.Fatalf("ReadTrace(%q): events differ from the reference", input)
	}
	if !reflect.DeepEqual(got.funcs, want.funcs) {
		t.Fatalf("ReadTrace(%q): function tables %v, reference %v", input, got.funcs, want.funcs)
	}
}

func TestTextCodecMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 300; i++ {
		col := genTextCollector(rng)
		var got, want bytes.Buffer
		if err := col.WriteTrace(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteTrace(col, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("collector %d: WriteTrace differs from the reference:\n%s\nwant:\n%s", i, got.Bytes(), want.Bytes())
		}
		checkReadersAgree(t, got.Bytes())
		col.Release()
	}
}

// TestReadTraceGrammarMatchesReference pins the accepted grammar at its
// edges: whitespace, signs, digit counts, overflow and non-ASCII bytes.
func TestReadTraceGrammarMatchesReference(t *testing.T) {
	for _, in := range []string{
		"",
		"\n\n   \n",
		"  # comment\n#\n",
		"EVT 1 0 0 enter 0 0 0",
		"\t EVT\v1\f0  0 enter 0 0 0\r\n",
		"EVT +1 +0 -0 enter +5 -7 +8",
		"EVT 999999999999999999 0 0 exit 0 -999999999999999999 0",
		"EVT 9223372036854775807 0 0 exit 0 -9223372036854775808 0",
		"EVT 9223372036854775808 0 0 exit 0 0 0",
		"EVT 1 0 0 exit 0 -9223372036854775809 0",
		"EVT 00000000000000000000001 0 0 exit 0 0 0",
		"EVT - 0 0 exit 0 0 0",
		"EVT 1 0 0 exit 0 0 1_000",
		"EVT 1 0 0 exit 0 0 0x10",
		"EVT 1 2147483647 -2147483648 recv 2147483647 0 0",
		"EVT 1 0 0 kind(11) 0 0 0",
		"EVT 1 0 0 ENTER 0 0 0",
		"EVT 1 0 0 enter 0 0 0 extra",
		"EVT 1 0 0 enter 0 0 0",
		"EVT 1 0 0 enter 0 0 0 0",
		"EVT 1 0 0 enter 0 0 0 ",
		"EVT 1 0 0 enter 0 0 \xff",
		"FUNC 0 0 main\nFUNC 0 0 again\nFUNC 0 1 two  spaced\tname ",
		"FUNC 0 0 fünf sechs",
		"FUNC 1 2",
		"FUNC x 2 name",
		"FUNC 2147483648 0 main",
		"FUNC 99999999999999999999 0 main",
		"func 0 0 main",
		"#EVT 1 0 0 enter 0 0 0\nEVT 2 0 0 exit 0 0 0",
		"EVT 5 0 0 enter 0 0 0\nEVT 1 0 0 exit 0 0 0\nEVT 3 1 0 send 1 0 64",
		strings.Repeat("x", 1<<20+1),
		"EVT 1 0 0 enter 0 0 0\n" + strings.Repeat("y", 1<<20+1),
	} {
		checkReadersAgree(t, []byte(in))
	}
}

// FuzzReadTrace requires ReadTrace to accept exactly what the reference
// parser accepts, with the same error text, and to build the same
// collector from it. The seed corpus is in testdata/fuzz/FuzzReadTrace.
func FuzzReadTrace(f *testing.F) {
	f.Fuzz(func(t *testing.T, input []byte) {
		checkReadersAgree(t, input)
	})
}
