package vt

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"testing"

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
// batches, probes OverflowDisableProbe switches off between syncs, and
// batches naming unregistered functions, which must change nothing.
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
		// A two-event buffer with nothing draining it: once it is full,
		// every active probe that fires is disabled.
		c := NewCtx(Options{Collector: NewCollector(), Config: cfg, BufferEvents: 2, Overflow: fault.OverflowDisableProbe})
		c.Initialize(nil)
		ec := &fakeEC{}
		registered := 0
		for step := 0; step < 40; step++ {
			switch op := rng.Intn(5); {
			case op == 0 && registered < len(names):
				id := c.FuncDef(names[registered])
				registered++
				if c.Active(id) != c.cfg.Active(c.FuncName(id)) {
					t.Fatalf("seed %d: FuncDef(%s) active = %v against the rules", seed, c.FuncName(id), c.Active(id))
				}
			case op == 1 && registered > 0:
				c.Begin(ec, int32(rng.Intn(registered)))
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
