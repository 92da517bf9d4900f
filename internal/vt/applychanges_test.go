package vt

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
)

// oracleActive is the activation table as ApplyChanges once rebuilt it:
// every registered function re-matched against every rule ever set.
func oracleActive(c *Ctx) []bool {
	out := make([]bool, len(c.names))
	for id, name := range c.names {
		out[id] = c.cfg.Active(name)
	}
	return out
}

// TestApplyChangesMatchesFullReevaluation drives ApplyChanges through
// generated histories and compares it with the full re-evaluation after
// every accepted batch. Histories mix exact, prefix and bare "*" rules
// with overlapping patterns and ON/OFF flips, FuncDef calls between
// batches, and batches naming unregistered functions, which must change
// nothing.
func TestApplyChangesMatchesFullReevaluation(t *testing.T) {
	names := []string{"smg_Relax", "smg_RelaxPlane", "smg_Restrict", "sppm_EOS", "sppm_Sweep", "umt_Main", "a", "ab", "abc"}
	patterns := append(slices.Clone(names), "smg_*", "smg_Relax*", "sppm_*", "a*", "ab*", "*", "zz_*", "missing")
	for seed := int64(1); seed <= 300; seed++ {
		rng := rand.New(rand.NewSource(seed))
		change := func() Change {
			return Change{Pattern: patterns[rng.Intn(len(patterns))], Active: rng.Intn(2) == 0}
		}
		cfg := &Config{}
		for i := rng.Intn(3); i > 0; i-- {
			ch := change()
			cfg.Set(ch.Pattern, ch.Active)
		}
		c := NewCtx(Options{Collector: NewCollector(), Config: cfg})
		c.Initialize(nil)
		registered := 0
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(4); {
			case op == 0 && registered < len(names):
				id := c.FuncDef(names[registered])
				registered++
				if c.Active(id) != c.cfg.Active(c.FuncName(id)) {
					t.Fatalf("seed %d: FuncDef(%s) active = %v against the rules", seed, c.FuncName(id), c.Active(id))
				}
			default:
				batch := make([]Change, 1+rng.Intn(4))
				for i := range batch {
					batch[i] = change()
				}
				fns, rules, gen := slices.Clone(c.fns), slices.Clone(c.cfg.rules), c.gen
				err := c.ApplyChanges(batch)
				var unknown *UnknownFuncError
				switch {
				case errors.As(err, &unknown):
					if !slices.Equal(c.fns, fns) || !slices.Equal(c.cfg.rules, rules) || c.gen != gen {
						t.Fatalf("seed %d: rejected batch %v changed the library", seed, batch)
					}
				case err != nil:
					t.Fatalf("seed %d: ApplyChanges(%v) = %v", seed, batch, err)
				default:
					if len(c.cfg.rules) != len(rules)+len(batch) || c.gen != gen+1 {
						t.Fatalf("seed %d: accepted batch %v: %d rules after %d, generation %d after %d", seed, batch, len(c.cfg.rules), len(rules), c.gen, gen)
					}
					for id, want := range oracleActive(c) {
						if c.Active(int32(id)) != want {
							t.Fatalf("seed %d: after %v %s active = %v, full re-evaluation %v", seed, batch, c.names[id], !want, want)
						}
					}
				}
			}
		}
	}
}

// syncEC is a fakeEC that LocalSync can run on.
type syncEC struct{ fakeEC }

func (s *syncEC) Work(cycles int64) { s.Charge(cycles) }
func (s *syncEC) Breakpoint(string) {}

// TestRejectedSyncIsConfReject: a sync whose batch names an unregistered
// function is logged once as a rejected confsync on the rank's node, and
// the epoch still advances.
func TestRejectedSyncIsConfReject(t *testing.T) {
	inj := fault.NewInjector(&fault.Plan{CtrlDelayFactor: 2}, des.NewRNG(1))
	c := NewCtx(Options{Rank: 2, Collector: NewCollector(), Faults: inj, Node: 3})
	c.Initialize(nil)
	f := c.FuncDef("f")
	c.QueueChanges([]Change{{Pattern: "f", Active: false}, {Pattern: "missing", Active: false}})
	gen := c.Generation()
	if n := c.LocalSync(&syncEC{}); n != 2 {
		t.Errorf("LocalSync drained %d changes, want 2", n)
	}
	if c.Generation() != gen+1 {
		t.Errorf("generation %d after the sync, want %d", c.Generation(), gen+1)
	}
	if !c.Active(f) {
		t.Error("a rejected batch switched f off")
	}
	evs := inj.Events()
	if len(evs) != 1 || evs[0].Kind != fault.KindConfReject || evs[0].Node != 3 || evs[0].Rank != 2 ||
		!strings.Contains(evs[0].Detail, "missing") {
		t.Errorf("fault events = %+v, want one confsync-rejected event naming missing on node 3, rank 2", evs)
	}
}

// BenchmarkApplyChanges times one sync's batch of four rules on a
// 199-function table (Smg98's size) after 1, 16 and 256 earlier epochs.
// The history is held at that length while timing, so the sub-benchmarks
// show whether a sync's cost grows with the number of past epochs.
func BenchmarkApplyChanges(b *testing.B) {
	batch := func(e int) []Change {
		return []Change{
			{Pattern: fmt.Sprintf("f_%03d", e%199), Active: e%2 == 0},
			{Pattern: fmt.Sprintf("f_%03d", e*7%199), Active: e%3 == 0},
			{Pattern: fmt.Sprintf("f_%02d*", e%20), Active: e%2 == 1},
			{Pattern: "f_1*", Active: true},
		}
	}
	for _, epochs := range []int{1, 16, 256} {
		b.Run(fmt.Sprintf("epochs=%d", epochs), func(b *testing.B) {
			c := NewCtx(Options{Collector: NewCollector()})
			for i := 0; i < 199; i++ {
				c.FuncDef(fmt.Sprintf("f_%03d", i))
			}
			for e := 0; e < epochs; e++ {
				if err := c.ApplyChanges(batch(e)); err != nil {
					b.Fatal(err)
				}
			}
			history, next := len(c.cfg.rules), batch(epochs)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := c.ApplyChanges(next); err != nil {
					b.Fatal(err)
				}
				c.cfg.rules = c.cfg.rules[:history]
			}
		})
	}
}
