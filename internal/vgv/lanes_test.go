package vgv

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
	"strings"
	"testing"

	"dynprof/internal/vt"
)

// TestIDTableBudget puts small, negative and huge ids into tables sharing
// one budget and requires every value back, with no more dense slots than
// the budget allowed.
func TestIDTableBudget(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const budget = 300
	left := budget
	tables := make([]idTable, 3)
	want := make([]map[int32]int32, len(tables))
	for i := range want {
		want[i] = make(map[int32]int32)
	}
	for i := 0; i < 2000; i++ {
		ti := rng.Intn(len(tables))
		var id int32
		switch rng.Intn(4) {
		case 0:
			id = int32(rng.Intn(64))
		case 1:
			id = int32(rng.Intn(400))
		case 2:
			id = -int32(rng.Intn(1 << 20))
		default:
			id = math.MaxInt32 - int32(rng.Intn(8))
		}
		if _, ok := want[ti][id]; ok {
			continue
		}
		if _, ok := tables[ti].get(id); ok {
			t.Fatalf("table %d: id %d present before put", ti, id)
		}
		v := int32(i)
		tables[ti].put(id, v, &left)
		want[ti][id] = v
	}
	slots := 0
	for ti := range tables {
		slots += len(tables[ti].dense)
		for id, v := range want[ti] {
			if got, ok := tables[ti].get(id); !ok || got != v {
				t.Fatalf("table %d: id %d = %d, %v; want %d", ti, id, got, ok, v)
			}
		}
	}
	if slots+left != budget || left < 0 {
		t.Fatalf("%d dense slots with %d of the budget left; budget was %d", slots, left, budget)
	}
}

// TestAnalyzeBoundsAllocationOnHugeIDs analyzes a short trace whose ranks,
// thread ids, function ids and peers sit near ±2³¹: the dense tables must
// not grow toward them.
func TestAnalyzeBoundsAllocationOnHugeIDs(t *testing.T) {
	var b strings.Builder
	for _, line := range []string{
		"FUNC 2147483647 2147483646 top",
		"EVT 1 2147483647 2147483646 enter 2147483646 0 0",
		"EVT 2 -2147483648 -2147483647 enter -2147483648 0 0",
		"EVT 3 2147483647 2147483646 send 0 2147483645 8",
		"EVT 4 2147483647 2147483646 exit 2147483646 0 0",
		"EVT 5 2147483000 2147483000 renter 0 0 0",
		"EVT 6 2147483000 2147483000 rexit 0 0 0",
	} {
		b.WriteString(line + "\n")
	}
	col, err := vt.ReadTrace(strings.NewReader(b.String()))
	if err != nil {
		t.Fatal(err)
	}
	defer col.Release()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	p := Analyze(col)
	var buf bytes.Buffer
	if err := RenderTimeline(col, &buf, 40); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	if n := after.TotalAlloc - before.TotalAlloc; n > 1<<20 {
		t.Fatalf("Analyze and RenderTimeline allocated %d bytes for %d events", n, col.Len())
	}
	if p.Ranks != 3 || p.Threads != 3 || len(p.Comm) != 1 || p.Unbalanced != 1 {
		t.Fatalf("profile %+v", p)
	}
	checkMatchesReference(t, "huge ids", col)
}
