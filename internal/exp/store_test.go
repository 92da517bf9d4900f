package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"dynprof/internal/des"
)

// journalBytes reads the raw journal under dir.
func journalBytes(t *testing.T, dir string) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, StoreJournalName))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// storedAs decodes the journaled result under key as a T.
func storedAs[T cellResult](t *testing.T, st *Store, key string) (cellResult, bool) {
	t.Helper()
	raw, ok := st.Get(key)
	if !ok {
		return nil, false
	}
	v, err := decodeAs[T](raw)
	if err != nil {
		t.Fatalf("decode %q: %v", key, err)
	}
	return v, true
}

// TestStoreRoundTrip: all three result types survive Put/Close/reopen and
// decode through their specs, and keys without a kind prefix are rejected.
func TestStoreRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	want := []struct {
		spec cellSpec
		val  cellResult
	}{
		{RunSpec{App: "smg98", Policy: Subset, CPUs: 4}, Result{App: "smg98", Policy: Subset.Key(), CPUs: 4, Elapsed: 5 * des.Second, TraceBytes: 123}},
		{ConfSyncSpec{CPUs: 8}, ConfSyncResult{CPUs: 8, Mean: 3 * des.Millisecond}},
		{HybridSpec{CPUs: 4}, HybridResult{CPUs: 4, Elapsed: des.Second, CreateAndInstrument: 20 * des.Millisecond}},
	}
	for _, w := range want {
		if err := st.Put(w.spec.Key(), w.val); err != nil {
			t.Fatal(err)
		}
	}
	if err := st.Put("k-bad", Result{}); err == nil || !strings.Contains(err.Error(), "unstorable") {
		t.Errorf("unstorable Put error = %v", err)
	}
	if st.Len() != 3 {
		t.Errorf("Len = %d, want 3", st.Len())
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != 3 {
		t.Errorf("reloaded Len = %d, want 3", st2.Len())
	}
	for _, w := range want {
		raw, ok := st2.Get(w.spec.Key())
		if !ok {
			t.Errorf("Get(%q) missing", w.spec.Key())
			continue
		}
		got, err := w.spec.decode(raw)
		if err != nil || !reflect.DeepEqual(got, w.val) {
			t.Errorf("decode(%q) = %+v, %v; want %+v", w.spec.Key(), got, err, w.val)
		}
	}
}

// TestStoreTornFinalRecord: a crash mid-append leaves a torn final line;
// reload keeps everything before it and ignores the residue.
func TestStoreTornFinalRecord(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	res := Result{App: "sppm", Policy: None.Key(), CPUs: 2, Elapsed: des.Second}
	if err := st.Put("run|intact", res); err != nil {
		t.Fatal(err)
	}
	st.Close()
	appendTorn(t, dir)

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("torn final record must be tolerated, got %v", err)
	}
	defer st2.Close()
	if st2.Len() != 1 {
		t.Errorf("Len = %d, want the 1 intact record", st2.Len())
	}
	if _, ok := st2.Get("run|torn"); ok {
		t.Error("torn record must not be indexed")
	}
	if got, ok := storedAs[Result](t, st2, "run|intact"); !ok || !reflect.DeepEqual(got, res) {
		t.Errorf("intact record lost: %+v, %t", got, ok)
	}
}

// appendTorn simulates a crash mid-append: a record cut off before its
// newline.
func appendTorn(t *testing.T, dir string) {
	t.Helper()
	f, err := os.OpenFile(filepath.Join(dir, StoreJournalName), os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.WriteString(`{"key":"run|torn","run":{"App":"s`); err != nil {
		t.Fatal(err)
	}
}

// TestStoreTornTailThenAppend: a resumed sweep appends after a torn final
// record. Reopening must cut the torn bytes off, so the next append
// starts its own line and the journal reloads with every intact record.
func TestStoreTornTailThenAppend(t *testing.T) {
	dir := t.TempDir()
	first := Result{App: "sppm", Policy: None.Key(), CPUs: 2, Elapsed: des.Second}
	second := Result{App: "sppm", Policy: Full.Key(), CPUs: 2, Elapsed: 2 * des.Second}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Put("run|first", first); err != nil {
		t.Fatal(err)
	}
	st.Close()
	appendTorn(t, dir)

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Put("run|second", second); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatalf("journal appended after a torn record must reload, got %v", err)
	}
	defer st3.Close()
	if st3.Len() != 2 {
		t.Errorf("Len = %d, want 2", st3.Len())
	}
	for key, want := range map[string]Result{"run|first": first, "run|second": second} {
		if got, ok := storedAs[Result](t, st3, key); !ok || !reflect.DeepEqual(got, want) {
			t.Errorf("%s = %+v, %t; want %+v", key, got, ok, want)
		}
	}
	if bytes.Contains(journalBytes(t, dir), []byte("run|torn")) {
		t.Error("torn bytes survived in the journal")
	}
}

// TestStoreCorruptMiddle: corruption anywhere but the final line is not a
// crash signature and must fail loudly, naming the line.
func TestStoreCorruptMiddle(t *testing.T) {
	dir := t.TempDir()
	garbage := "not json at all\n" + `{"key":"ok","run":{"App":"sppm","Policy":"None","CPUs":2,"Elapsed":1,"CreateAndInstrument":0,"TraceBytes":0,"Faults":null}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, StoreJournalName), []byte(garbage), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err := OpenStore(dir)
	if err == nil || !strings.Contains(err.Error(), "line 1") {
		t.Errorf("corrupt mid-journal error = %v, want a line-1 diagnosis", err)
	}
}

// TestStoreLastRecordWins: duplicate keys resolve to the latest intact
// record, both live and across a reload; Compact drops the superseded one.
func TestStoreLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := Result{App: "smg98", Policy: Full.Key(), CPUs: 2, Elapsed: des.Second}
	second := Result{App: "smg98", Policy: Full.Key(), CPUs: 2, Elapsed: 2 * des.Second}
	if err := st.Put("run|k", first); err != nil {
		t.Fatal(err)
	}
	if err := st.Put("run|k", second); err != nil {
		t.Fatal(err)
	}
	st.Close()
	if n := bytes.Count(journalBytes(t, dir), []byte("\n")); n != 2 {
		t.Errorf("journal has %d records, want both appends", n)
	}

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := storedAs[Result](t, st2, "run|k"); !reflect.DeepEqual(got, second) {
		t.Errorf("Get after reload = %+v, want the later record", got)
	}
	if err := st2.Compact(); err != nil {
		t.Fatal(err)
	}
	if n := bytes.Count(journalBytes(t, dir), []byte("\n")); n != 1 {
		t.Errorf("compacted journal has %d records, want 1", n)
	}
	// The handle stays usable for appends after compaction.
	if err := st2.Put("run|k2", first); err != nil {
		t.Fatal(err)
	}
	st2.Close()

	st3, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st3.Close()
	if got, _ := storedAs[Result](t, st3, "run|k"); !reflect.DeepEqual(got, second) {
		t.Errorf("post-compact Get(k) = %+v, want the later record", got)
	}
	if got, ok := storedAs[Result](t, st3, "run|k2"); !ok || !reflect.DeepEqual(got, first) {
		t.Errorf("post-compact append lost: %+v, %t", got, ok)
	}
}

// TestStoreRunnerResume: a second Runner over the same cache directory
// re-executes nothing and assembles byte-identical output — the
// kill-and-resume contract.
func TestStoreRunnerResume(t *testing.T) {
	dir := t.TempDir()
	render := func(st *Store, onCell func(CellEvent)) string {
		plan := supervisedPlan(healthyTestApp("steady"), healthyTestApp("steady2"))
		r := NewRunner(Options{Parallelism: 2, Store: st, OnCell: onCell})
		fig, err := runHandPlan(r, plan)
		if err != nil {
			t.Fatal(err)
		}
		var b bytes.Buffer
		if err := fig.Render(&b); err != nil {
			t.Fatal(err)
		}
		m := r.Metrics()
		if onCell == nil {
			if m.Runs != 2 || m.StoreHits != 0 {
				t.Errorf("first pass runs=%d store-hits=%d, want 2/0", m.Runs, m.StoreHits)
			}
		} else {
			if m.Runs != 0 || m.StoreHits != 2 {
				t.Errorf("resumed pass runs=%d store-hits=%d, want 0/2", m.Runs, m.StoreHits)
			}
		}
		return b.String()
	}

	st1, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	first := render(st1, nil)
	st1.Close()

	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	var evs []CellEvent
	resumed := render(st2, func(ev CellEvent) { evs = append(evs, ev) })
	if first != resumed {
		t.Errorf("resumed output differs from original:\n--- first ---\n%s\n--- resumed ---\n%s", first, resumed)
	}
	if len(evs) != 2 {
		t.Fatalf("resumed pass emitted %d events, want 2", len(evs))
	}
	for _, ev := range evs {
		if !ev.StoreHit || ev.Failed {
			t.Errorf("resumed event %+v, want a healthy store hit", ev)
		}
	}
}

// TestStoreSkipsFailures: failed cells are never persisted — a resumed
// sweep must re-attempt them rather than trust a failure record.
func TestStoreSkipsFailures(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	r := NewRunner(Options{Store: st})
	if _, err := r.Run(RunSpec{AppDef: panicTestApp("explodes"), Policy: None, CPUs: 1, Seed: DefaultSeed}); err == nil {
		t.Fatal("panicking spec must return an error from Run")
	}
	if st.Len() != 0 {
		t.Errorf("store indexed %d records after a failure, want 0", st.Len())
	}
	if data := bytes.TrimSpace(journalBytes(t, dir)); len(data) != 0 {
		t.Errorf("journal not empty after a failure: %q", data)
	}
}

// TestStoreCompactSortsByKey: Compact writes one record per key in key
// order, so a compacted journal's bytes do not depend on map order.
func TestStoreCompactSortsByKey(t *testing.T) {
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	for i, key := range []string{"run|c", "run|a", "run|b"} {
		if err := st.Put(key, Result{App: key, CPUs: i}); err != nil {
			t.Fatal(err)
		}
	}
	lines := strings.SplitAfter(string(journalBytes(t, dir)), "\n")
	want := lines[1] + lines[2] + lines[0]
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	if got := string(journalBytes(t, dir)); got != want {
		t.Errorf("compacted journal:\n%s\nwant records sorted by key:\n%s", got, want)
	}
}

// TestStoreUndecodableRecordFails: a journal record that parses but does
// not decode as its spec's result type fails the sweep and the single-spec
// path loudly instead of silently re-running or dropping the cell.
func TestStoreUndecodableRecordFails(t *testing.T) {
	dir := t.TempDir()
	plan := supervisedPlan(healthyTestApp("steady"))
	spec := plan.cells[0].spec.(RunSpec)
	key, _ := json.Marshal(spec.Key())
	rec := fmt.Sprintf(`{"key":%s,"run":{"CPUs":"one"}}`+"\n", key)
	if err := os.WriteFile(filepath.Join(dir, StoreJournalName), []byte(rec), 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := runHandPlan(NewRunner(Options{Store: st}), plan); err == nil || !strings.Contains(err.Error(), spec.Key()) {
		t.Errorf("figure over an undecodable record: err = %v, want one naming %q", err, spec.Key())
	}
	if _, err := NewRunner(Options{Store: st}).Run(spec); err == nil {
		t.Error("Run over an undecodable record must fail")
	}
}

// FuzzLoadJournal: indexing arbitrary journal bytes never panics, reports
// an intact prefix no longer than the input, and ignores a torn tail:
// appending bytes with no newline leaves the index and the intact length
// (or the error) unchanged.
func FuzzLoadJournal(f *testing.F) {
	f.Fuzz(func(t *testing.T, data, tail []byte) {
		tail = bytes.ReplaceAll(tail, []byte("\n"), nil)
		idx, intact, err := loadJournal("fuzz", data)
		if err == nil && (intact < 0 || intact > len(data)) {
			t.Fatalf("intact prefix %d of %d bytes", intact, len(data))
		}
		torn := append(slices.Clip(data), tail...)
		idx2, intact2, err2 := loadJournal("fuzz", torn)
		if (err == nil) != (err2 == nil) || intact2 != intact || !reflect.DeepEqual(idx2, idx) {
			t.Fatalf("torn tail %q changed the load: (%d, %v) -> (%d, %v)", tail, intact, err, intact2, err2)
		}
	})
}
