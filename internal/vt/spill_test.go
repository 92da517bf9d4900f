package vt

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"dynprof/internal/des"
)

// fillBatches appends n interleaved per-thread batches to col, modelling
// mid-run flushes from several ranks: each batch is time-sorted internally
// but batches overlap in time, forcing real merge work.
func fillBatches(col *Collector, batches, perBatch int) {
	col.AddFuncTable(0, map[int32]string{1: "main", 2: "solve"})
	for b := 0; b < batches; b++ {
		evs := make([]Event, perBatch)
		for i := range evs {
			evs[i] = Event{
				At:   des.Time(b + i*3),
				Rank: int32(b % 4), TID: int32(b % 2),
				Kind: Enter, ID: 1 + int32(i%2), A: int64(b), B: int64(i),
			}
		}
		col.Append(evs)
	}
}

func TestSpillEquivalence(t *testing.T) {
	dir := t.TempDir()

	plain := NewCollector()
	defer plain.Release()
	fillBatches(plain, 20, 50)

	spilling := NewCollector()
	defer spilling.Release()
	if err := spilling.SpillTo(filepath.Join(dir, "trace.spill"), 128); err != nil {
		t.Fatal(err)
	}
	fillBatches(spilling, 20, 50)

	if spilling.Spilled() == 0 {
		t.Fatal("no events spilled despite tiny threshold")
	}
	if spilling.Resident() >= plain.Len() {
		t.Errorf("resident %d not bounded (total %d)", spilling.Resident(), plain.Len())
	}
	if spilling.Len() != plain.Len() || spilling.Bytes() != plain.Bytes() {
		t.Errorf("Len/Bytes diverge: %d/%d vs %d/%d",
			spilling.Len(), spilling.Bytes(), plain.Len(), plain.Bytes())
	}
	if err := spilling.SpillErr(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(spilling.Ordered().AppendTo(nil), plain.Ordered().AppendTo(nil)) {
		t.Error("merged views diverge between spilled and resident collectors")
	}

	var a, b bytes.Buffer
	if err := plain.WriteTrace(&a); err != nil {
		t.Fatal(err)
	}
	if err := spilling.WriteTrace(&b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Error("WriteTrace output diverges between spilled and resident collectors")
	}
}

func TestSpillBoundsArena(t *testing.T) {
	dir := t.TempDir()
	col := NewCollector()
	defer col.Release()
	const threshold = 256
	if err := col.SpillTo(filepath.Join(dir, "trace.spill"), threshold); err != nil {
		t.Fatal(err)
	}
	for b := 0; b < 100; b++ {
		evs := make([]Event, 100)
		for i := range evs {
			evs[i] = Event{At: des.Time(b*100 + i)}
		}
		col.Append(evs)
		// Immediately after any Append the arena can exceed the threshold
		// by at most one batch before the spill empties it.
		if col.Resident() >= threshold {
			t.Fatalf("batch %d: resident %d >= threshold %d after Append", b, col.Resident(), threshold)
		}
	}
	if col.Spilled()+col.Resident() != col.Len() || col.Len() != 100*100 {
		t.Errorf("accounting wrong: spilled %d + resident %d != len %d",
			col.Spilled(), col.Resident(), col.Len())
	}
}

func TestSpillAppendAfterReadKeepsOrder(t *testing.T) {
	dir := t.TempDir()
	col := NewCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(dir, "trace.spill"), 4); err != nil {
		t.Fatal(err)
	}
	col.Append([]Event{{At: 10}, {At: 20}, {At: 30}, {At: 40}}) // spills
	if got := col.Ordered().AppendTo(nil); len(got) != 4 {
		t.Fatalf("mid-run view: %d events", len(got))
	}
	col.Append([]Event{{At: 5}, {At: 35}}) // resident, interleaves with disk
	got := col.Ordered().AppendTo(nil)
	want := []des.Time{5, 10, 20, 30, 35, 40}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d", len(got), len(want))
	}
	for i, e := range got {
		if e.At != want[i] {
			t.Errorf("event %d at %v, want %v", i, e.At, want[i])
		}
	}
}

func TestSpillReleaseDeletesFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.spill")
	col := NewCollector()
	if err := col.SpillTo(path, 2); err != nil {
		t.Fatal(err)
	}
	col.Append([]Event{{At: 1}, {At: 2}, {At: 3}})
	if _, err := os.Stat(path); err != nil {
		t.Fatalf("spill file missing while live: %v", err)
	}
	col.Release()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Errorf("spill file survives Release: %v", err)
	}
}

func TestSpillToValidates(t *testing.T) {
	col := NewCollector()
	defer col.Release()
	if err := col.SpillTo(filepath.Join(t.TempDir(), "s"), 0); err == nil {
		t.Error("zero threshold must be rejected")
	}
	path := filepath.Join(t.TempDir(), "s")
	if err := col.SpillTo(path, 10); err != nil {
		t.Fatal(err)
	}
	if err := col.SpillTo(path, 10); err == nil {
		t.Error("double SpillTo must be rejected")
	}
	fresh := NewCollector()
	defer fresh.Release()
	if err := fresh.SpillTo(filepath.Join(t.TempDir(), "no/such/dir/s"), 10); err == nil {
		t.Error("unwritable path must surface an error")
	}
}
