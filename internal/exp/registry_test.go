package exp

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// TestFigureIDsPinned: the default figure set is the paper's figures plus
// the hybrid and fault extensions, in presentation order.
func TestFigureIDsPinned(t *testing.T) {
	want := []string{"fig7a", "fig7b", "fig7c", "fig7d", "fig8a", "fig8b", "fig8c", "fig9", "hybrid", "faults"}
	if got := FigureIDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("FigureIDs() = %v, want %v", got, want)
	}
	var all, flags []string
	for _, f := range FigureFlags() {
		flags = append(flags, f.ID)
		if f.InAll {
			all = append(all, f.ID)
		}
	}
	if !reflect.DeepEqual(all, want[:8]) {
		t.Errorf("figures in -all = %v, want %v", all, want[:8])
	}
	if wantFlags := append(want, "scale", "tenants", "adapt", "recover", "compact"); !reflect.DeepEqual(flags, wantFlags) {
		t.Errorf("FigureFlags() IDs = %v, want %v", flags, wantFlags)
	}
}

// fixtureRecords reads testdata/journal_v1.jsonl, a journal written by
// the Store before results were kept as raw JSON: one record per kind.
// It returns the raw lines and each record's result JSON by kind.
func fixtureRecords(t *testing.T) ([][]byte, map[string]json.RawMessage) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("testdata", "journal_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.SplitAfter(bytes.TrimSuffix(data, []byte("\n")), []byte("\n"))
	byKind := make(map[string]json.RawMessage)
	for _, line := range lines {
		var rec map[string]json.RawMessage
		var key string
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		if err := json.Unmarshal(rec["key"], &key); err != nil {
			t.Fatal(err)
		}
		kind, ok := kindOf(key)
		if !ok {
			t.Fatalf("fixture key %q has no kind", key)
		}
		byKind[kind] = rec[kind]
	}
	return lines, byKind
}

// TestRegisteredFiguresStoreRoundTrip: every registered figure's cell
// keys carry a kind, that kind's fixture record decodes through the
// cell's spec into the result type its value extractor reads (a wrong
// type would drop fields and re-marshal differently), and the decoded
// result round-trips through the Store unchanged.
func TestRegisteredFiguresStoreRoundTrip(t *testing.T) {
	_, fixture := fixtureRecords(t)
	dir := t.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	type stored struct {
		spec cellSpec
		val  cellResult
	}
	want := make(map[string]stored)
	for _, d := range figureDefs {
		plan, err := d.plan(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.cells {
			key := c.spec.Key()
			kind, ok := kindOf(key)
			if !ok {
				t.Fatalf("%s: cell key %q has no kind prefix", d.id, key)
			}
			raw, ok := fixture[kind]
			if !ok {
				t.Fatalf("%s: no fixture record of kind %q", d.id, kind)
			}
			v, err := c.spec.decode(raw)
			if err != nil {
				t.Fatalf("%s: decode %s record: %v", d.id, kind, err)
			}
			if again, _ := json.Marshal(v); !bytes.Equal(again, raw) {
				t.Fatalf("%s: %s record decodes lossily as %T:\n got %s\nwant %s", d.id, kind, v, again, raw)
			}
			c.value(v)
			if _, seen := want[key]; !seen {
				want[key] = stored{c.spec, v}
				if err := st.Put(key, v); err != nil {
					t.Fatal(err)
				}
			}
		}
	}
	st.Close()
	st2, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	if st2.Len() != len(want) {
		t.Errorf("reloaded Len = %d, want %d", st2.Len(), len(want))
	}
	for key, w := range want {
		raw, ok := st2.Get(key)
		if !ok {
			t.Fatalf("%q lost across reload", key)
		}
		if got, err := w.spec.decode(raw); err != nil || !reflect.DeepEqual(got, w.val) {
			t.Errorf("%q reloaded as %+v, %v; want %+v", key, got, err, w.val)
		}
	}
}

// TestStoreJournalV1Compat: a journal written before results were kept as
// raw JSON loads in full, and re-putting each decoded record reproduces
// the journal byte for byte.
func TestStoreJournalV1Compat(t *testing.T) {
	lines, _ := fixtureRecords(t)
	old := t.TempDir()
	data, err := os.ReadFile(filepath.Join("testdata", "journal_v1.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(old, StoreJournalName), data, 0o644); err != nil {
		t.Fatal(err)
	}
	st, err := OpenStore(old)
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if st.Len() != len(lines) {
		t.Fatalf("loaded %d records, want %d", st.Len(), len(lines))
	}
	specs := make(map[string]cellSpec)
	for _, d := range figureDefs {
		plan, err := d.plan(Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.cells {
			kind, _ := kindOf(c.spec.Key())
			specs[kind] = c.spec
		}
	}
	fresh := t.TempDir()
	st2, err := OpenStore(fresh)
	if err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	for _, line := range lines {
		var rec struct{ Key string }
		if err := json.Unmarshal(line, &rec); err != nil {
			t.Fatal(err)
		}
		kind, _ := kindOf(rec.Key)
		raw, _ := st.Get(rec.Key)
		v, err := specs[kind].decode(raw)
		if err != nil {
			t.Fatalf("decode %q: %v", rec.Key, err)
		}
		if err := st2.Put(rec.Key, v); err != nil {
			t.Fatal(err)
		}
	}
	if got := journalBytes(t, fresh); !bytes.Equal(got, data) {
		t.Errorf("re-put journal differs from the fixture:\n got %s\nwant %s", got, data)
	}
}
