package main

import (
	"crypto/sha256"
	"fmt"
	"path/filepath"
	"time"

	"dynprof/internal/exp"
)

// scaleWL runs the scale figure's six cells directly through exp.RunScale,
// on 8 shards and spilling trace arenas to disk.
type scaleWL struct {
	cfg   config
	ranks []int
	spill string
}

// scaleApps are the skeletons of the scale figure.
var scaleApps = []string{"smg98", "sweep3d"}

func newScale(cfg config) (workload, error) {
	w := &scaleWL{cfg: cfg, ranks: []int{1024, 4096, 16384}, spill: filepath.Join(cfg.workdir, "spill")}
	if cfg.quick {
		w.ranks = []int{256, 1024}
	}
	return w, nil
}

func (w *scaleWL) spec(app string, ranks, shards int) exp.ScaleSpec {
	threshold := exp.DefaultSpillThreshold
	if w.cfg.quick {
		threshold = 1024
	}
	return exp.ScaleSpec{
		App: app, Ranks: ranks, Shards: shards, Seed: w.cfg.seed,
		SpillDir: w.spill, SpillThreshold: threshold, HostParallelism: w.cfg.workers,
	}
}

func (w *scaleWL) unit(tr *tracer) (*unitOut, error) {
	out := newUnitOut()
	h := sha256.New()
	var spilled, trace int
	var runS float64
	for _, app := range scaleApps {
		for _, ranks := range w.ranks {
			spec := w.spec(app, ranks, exp.DefaultScaleShards)
			id := tr.host(0, "exp", fmt.Sprintf("RunScale %s/%d", app, ranks))
			t0 := time.Now()
			res, err := exp.RunScale(spec)
			runS += time.Since(t0).Seconds()
			tr.done(id)
			if err != nil {
				return nil, err
			}
			tr.virtDone(tr.virt(id, "des", fmt.Sprintf("Cluster %s/%d", app, ranks), 0), res.Elapsed)
			out.attempted++
			// The skeletons draw no random numbers: every seed simulates
			// the same results.
			fmt.Fprintf(h, "%s/%d shards=%d elapsed=%d events=%d trace=%d/%d spilled=%d\n",
				app, ranks, res.Shards, res.Elapsed, res.Events, res.TraceEvents, res.TraceBytes, res.SpilledEvents)
			if ranks == w.ranks[len(w.ranks)-1] && res.SpilledEvents == 0 {
				out.fail("scale %s/%d: nothing spilled", app, ranks)
			}
			out.events += res.Events
			spilled += res.SpilledEvents
			trace += res.TraceEvents
		}
	}
	out.sum(h)
	out.layer["des.run_s"] = runS
	out.layer["des.events"] = float64(out.events)
	out.layer["des.events_per_s"] = float64(out.events) / runS
	out.layer["vt.trace_events"] = float64(trace)
	out.layer["vt.spilled_events"] = float64(spilled)
	return out, nil
}

// extra reruns every cell on one shard: the wall-time ratio is the sharded
// DES's speed-up at this host's parallelism, and Elapsed must not move.
func (w *scaleWL) extra(tr *tracer) (map[string]float64, error) {
	layer := make(map[string]float64)
	for _, app := range scaleApps {
		var walls [2]float64
		for _, ranks := range w.ranks {
			var elapsed [2]int64
			for i, shards := range []int{1, exp.DefaultScaleShards} {
				id := tr.host(0, "exp", fmt.Sprintf("RunScale %s/%d shards=%d", app, ranks, shards))
				t0 := time.Now()
				res, err := exp.RunScale(w.spec(app, ranks, shards))
				walls[i] += time.Since(t0).Seconds()
				tr.done(id)
				if err != nil {
					return nil, err
				}
				elapsed[i] = int64(res.Elapsed)
			}
			if elapsed[0] != elapsed[1] {
				return nil, fmt.Errorf("bench: scale %s/%d: elapsed %d on one shard, %d on %d",
					app, ranks, elapsed[0], elapsed[1], exp.DefaultScaleShards)
			}
		}
		layer["des.shard_speedup."+app] = walls[0] / walls[1]
	}
	return layer, nil
}
