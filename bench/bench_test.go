package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"
)

// TestMain lets the test binary stand in for the benchmark binary: the
// one-workload tests re-execute it as their measured child.
func TestMain(m *testing.M) {
	for _, a := range os.Args[1:] {
		if a == "-child" {
			os.Exit(run(os.Args[1:], os.Stdout))
		}
	}
	os.Exit(m.Run())
}

// TestQuickWorkloads runs one quick-size unit of every workload in
// process: each must attempt something, pass its own checks and report
// finite exact metrics.
func TestQuickWorkloads(t *testing.T) {
	for _, def := range workloads {
		t.Run(def.name, func(t *testing.T) {
			w, err := def.build(config{seed: 2003, workers: 2, quick: true, workdir: t.TempDir()})
			if err != nil {
				t.Fatal(err)
			}
			u, err := w.unit(newTracer(def.name))
			if err != nil {
				t.Fatal(err)
			}
			if len(u.failures) > 0 {
				t.Fatalf("%d failures, first: %s", len(u.failures), u.failures[0])
			}
			if u.attempted == 0 || len(u.digest) != 64 {
				t.Fatalf("attempted %d, digest %q", u.attempted, u.digest)
			}
			for k, v := range u.exact {
				if math.IsNaN(v) || math.IsInf(v, 0) {
					t.Errorf("exact %s = %g", k, v)
				}
			}
		})
	}
}

// benchmarkJSON is the part of BENCHMARK.json the code must agree with.
type benchmarkJSON struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit, Better string
	} `json:"per_layer"`
}

func loadBenchmarkJSON(t *testing.T) benchmarkJSON {
	t.Helper()
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(b, &bj); err != nil {
		t.Fatal(err)
	}
	return bj
}

// resultLineOf runs the one-workload form in process (children are this
// test binary) and decodes its last output line.
func resultLineOf(t *testing.T, workload, trace string) jsonResult {
	t.Helper()
	var out bytes.Buffer
	code := run([]string{"-workload", workload, "-quick", "-seconds", "0", "-trace", trace}, &out)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if code != 0 {
		t.Fatalf("exit %d:\n%s", code, out.String())
	}
	var r jsonResult
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("last line is not a result: %v\n%s", err, out.String())
	}
	return r
}

var metricName = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)

// TestEmittedMetricsMatchBenchmarkJSON checks that the one-workload
// form's result lines carry exactly the metrics BENCHMARK.json declares, with the same
// units, and that the declared workloads are the registered ones. Every
// workload shares the emitting code, so the cheapest one stands in.
func TestEmittedMetricsMatchBenchmarkJSON(t *testing.T) {
	bj := loadBenchmarkJSON(t)
	// The one-workload form keeps its scratch under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(t.TempDir()); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	var names []string
	for _, w := range bj.Workloads {
		names = append(names, w.Name)
	}
	var registered []string
	for _, d := range workloads {
		registered = append(registered, d.name)
	}
	if strings.Join(names, ",") != strings.Join(registered, ",") {
		t.Errorf("BENCHMARK.json workloads %v, registered %v", names, registered)
	}

	for _, tc := range []struct {
		trace    string
		declared []struct{ Name, Unit, Better string }
	}{
		{"0", bj.EndToEnd},
		{"1", bj.PerLayer},
	} {
		r := resultLineOf(t, "trace", tc.trace)
		if !r.Correct || r.Attempted < 1 || r.Failed != 0 {
			t.Errorf("-trace %s: correct %t attempted %d failed %d", tc.trace, r.Correct, r.Attempted, r.Failed)
		}
		var emitted, want []string
		for k, m := range r.Metrics {
			emitted = append(emitted, k+" "+m.Unit)
			if !metricName.MatchString(k) {
				t.Errorf("metric name %q", k)
			}
		}
		for _, d := range tc.declared {
			want = append(want, d.Name+" "+d.Unit)
		}
		sort.Strings(emitted)
		sort.Strings(want)
		if strings.Join(emitted, ",") != strings.Join(want, ",") {
			t.Errorf("-trace %s emits\n  %v\nBENCHMARK.json declares\n  %v", tc.trace, emitted, want)
		}
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives for the same data.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs          []float64
		q1, med, q3 float64
	}{
		{[]float64{3, 1, 2}, 1, 2, 3},
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{5}, 5, 5, 5},
	} {
		q1, med, q3 := quartiles(tc.xs)
		if q1 != tc.q1 || med != tc.med || q3 != tc.q3 {
			t.Errorf("quartiles(%v) = %g %g %g, want %g %g %g", tc.xs, q1, med, q3, tc.q1, tc.med, tc.q3)
		}
	}
}

// TestFoldTraces checks the attribution rule on pprof -traces text: a
// sample's time goes to its innermost dynprof/internal frame's module, and
// samples without one go to the runtime.
func TestFoldTraces(t *testing.T) {
	out := []byte(`File: bench
Type: cpu
-----------+-------------------------------------------------------
      30ms   runtime.memmove
             dynprof/internal/vt.(*Collector).Append
             dynprof/internal/des.(*Scheduler).Run
-----------+-------------------------------------------------------
      10ms   runtime.gcBgMarkWorker
-----------+-------------------------------------------------------
      10ms   dynprof/internal/apps/smg98.(*kernel).solve
             dynprof/internal/guide.(*Ctx).Call (inline)
-----------+-------------------------------------------------------
`)
	shares, total, err := foldTraces(out)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(total-0.05) > 1e-12 {
		t.Errorf("total %g s, want 0.05", total)
	}
	for m, want := range map[string]float64{"vt": 0.6, "runtime": 0.2, "apps": 0.2, "des": 0} {
		if math.Abs(shares[m]-want) > 1e-12 {
			t.Errorf("share %s = %g, want %g", m, shares[m], want)
		}
	}
}
