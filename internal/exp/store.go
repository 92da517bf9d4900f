package exp

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
)

// StoreJournalName is the journal file a Store keeps under its directory.
const StoreJournalName = "results.jsonl"

// kindOf returns a spec key's kind: its prefix before the first '|',
// which names the result's field in the key's journal line
// {"key":K,"<kind>":<result JSON>}.
func kindOf(key string) (string, bool) {
	kind, _, ok := strings.Cut(key, "|")
	return kind, ok
}

// appendRecord appends the journal line of one result to b.
func appendRecord(b []byte, key, kind string, raw []byte) []byte {
	k, _ := json.Marshal(key) // a string always marshals
	f, _ := json.Marshal(kind)
	return fmt.Appendf(b, "{\"key\":%s,%s:%s}\n", k, f, raw)
}

// Store is a persistent result store for experiment cells: an append-only
// JSONL journal keyed by canonical spec keys. The Runner consults it
// before executing a cell and appends every fresh success, so a killed
// sweep resumes where it died instead of recomputing finished cells. The
// Store keeps each result as raw JSON; the spec that asks for it decodes
// it into its own result type.
//
// Crash safety: records are fsynced as they are appended, and reopening
// a journal cuts off a torn final record (the signature of a crash
// mid-append) before the next append. Corruption anywhere else is
// reported as an error. When the same key appears more than once, the
// last intact record wins.
//
// A Store is safe for concurrent use.
type Store struct {
	mu  sync.Mutex
	f   *os.File
	idx map[string]json.RawMessage
}

// OpenStore opens (creating as needed) the journal under dir, loads every
// intact record into the lookup index and cuts a torn final record off,
// so the next append starts on a fresh line.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	path := filepath.Join(dir, StoreJournalName)
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	idx, intact, err := loadJournal(path, data)
	if err != nil {
		return nil, err
	}
	if intact < len(data) {
		if err := os.Truncate(path, int64(intact)); err != nil {
			return nil, fmt.Errorf("exp: store: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("exp: store: %w", err)
	}
	return &Store{f: f, idx: idx}, nil
}

// loadJournal indexes a journal's bytes and returns the length of its
// intact prefix. A record counts once its newline is written: bytes after
// the last newline are a torn append, the expected residue of a crash,
// and are ignored. Corruption anywhere else is an error.
func loadJournal(path string, data []byte) (map[string]json.RawMessage, int, error) {
	idx := make(map[string]json.RawMessage)
	intact := bytes.LastIndexByte(data, '\n') + 1
	for i, line := range bytes.Split(data[:intact], []byte("\n")) {
		line = bytes.TrimSpace(line)
		if len(line) == 0 {
			continue
		}
		var rec map[string]json.RawMessage
		var key string
		err := json.Unmarshal(line, &rec)
		if err == nil {
			err = json.Unmarshal(rec["key"], &key)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("exp: store: journal %s corrupt at line %d: %w", path, i+1, err)
		}
		kind, ok := kindOf(key)
		if raw, found := rec[kind]; ok && found {
			idx[key] = raw
			continue
		}
		return nil, 0, fmt.Errorf("exp: store record %q carries no result", key)
	}
	return idx, intact, nil
}

// Len reports the number of distinct keys in the index.
func (st *Store) Len() int {
	st.mu.Lock()
	defer st.mu.Unlock()
	return len(st.idx)
}

// Get returns the stored result JSON for a canonical spec key.
func (st *Store) Get(key string) (json.RawMessage, bool) {
	st.mu.Lock()
	defer st.mu.Unlock()
	raw, ok := st.idx[key]
	return raw, ok
}

// Put appends one successful cell result to the journal (fsynced) and
// indexes it. The key must start with its kind; failures are never
// persisted — a resumed sweep re-attempts them.
func (st *Store) Put(key string, val cellResult) error {
	kind, ok := kindOf(key)
	if !ok {
		return fmt.Errorf("exp: store: unstorable key %q: no <kind>| prefix", key)
	}
	raw, err := json.Marshal(val)
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	line := appendRecord(nil, key, kind, raw)
	st.mu.Lock()
	defer st.mu.Unlock()
	if _, err := st.f.Write(line); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	if err := st.f.Sync(); err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	st.idx[key] = raw
	return nil
}

// Close releases the journal file handle. The index stays readable.
func (st *Store) Close() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	return st.f.Close()
}

// Compact rewrites the journal to one record per live key (last wins),
// sorted by key so the bytes are deterministic, then atomically replaces
// the old journal. Useful after many resumed sweeps over one cache
// directory.
func (st *Store) Compact() error {
	st.mu.Lock()
	defer st.mu.Unlock()
	keys := make([]string, 0, len(st.idx))
	for key := range st.idx {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	var buf []byte
	for _, key := range keys {
		kind, _ := kindOf(key)
		buf = appendRecord(buf, key, kind, st.idx[key])
	}
	path := st.f.Name()
	tmp, err := os.CreateTemp(filepath.Dir(path), "results-*.jsonl")
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	defer os.Remove(tmp.Name())
	_, err = tmp.Write(buf)
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), path)
	}
	if err == nil {
		err = st.f.Close()
	}
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("exp: store: %w", err)
	}
	st.f = f
	return nil
}
