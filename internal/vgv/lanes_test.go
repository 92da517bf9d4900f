package vgv

import (
	"bytes"
	"math"
	"math/rand"
	"runtime"
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
	col := vt.NewCollector()
	col.AddFuncTable(math.MaxInt32, map[int32]string{math.MaxInt32 - 1: "top"})
	col.Append([]vt.Event{
		{At: 1, Rank: math.MaxInt32, TID: math.MaxInt32 - 1, Kind: vt.Enter, ID: math.MaxInt32 - 1},
		{At: 2, Rank: math.MinInt32, TID: math.MinInt32 + 1, Kind: vt.Enter, ID: math.MinInt32},
		{At: 3, Rank: math.MaxInt32, TID: math.MaxInt32 - 1, Kind: vt.MsgSend, A: math.MaxInt32 - 2, B: 8},
		{At: 4, Rank: math.MaxInt32, TID: math.MaxInt32 - 1, Kind: vt.Exit, ID: math.MaxInt32 - 1},
		{At: 5, Rank: 2147483000, TID: 2147483000, Kind: vt.RegionEnter},
		{At: 6, Rank: 2147483000, TID: 2147483000, Kind: vt.RegionExit},
	})
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
