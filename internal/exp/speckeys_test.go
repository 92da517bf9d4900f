package exp

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestSpecKeysPinned pins the Key of every cell of every registered
// figure under zero Options, in plan order, to testdata/spec_keys.txt. A
// key is a cell's identity in the memo cache and the -cache-dir journal:
// one that changes makes an existing journal miss and rerun the cell.
func TestSpecKeysPinned(t *testing.T) {
	var b strings.Builder
	b.WriteString("# Key() of every figure cell under zero Options: figure ID, then key.\n")
	b.WriteString("# Regenerate: go test ./internal/exp/ -run TestSpecKeysPinned -update\n")
	for _, d := range figureDefs {
		plan, err := planFor(d.id, Options{})
		if err != nil {
			t.Fatal(err)
		}
		for _, c := range plan.cells {
			fmt.Fprintf(&b, "%s %s\n", d.id, c.spec.Key())
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "spec_keys.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("rewrote %s", path)
		return
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("read pinned keys (run with -update to create): %v", err)
	}
	gotLines, wantLines := strings.Split(got, "\n"), strings.Split(string(raw), "\n")
	for i := 0; i < len(gotLines) && i < len(wantLines); i++ {
		if gotLines[i] != wantLines[i] {
			t.Fatalf("%s line %d:\n got %s\nwant %s", path, i+1, gotLines[i], wantLines[i])
		}
	}
	if len(gotLines) != len(wantLines) {
		t.Fatalf("%d key lines, want %d", len(gotLines), len(wantLines))
	}
}
