package exp

import (
	"testing"

	"dynprof/internal/des"
)

// BenchmarkRunnerFigures measures the Runner scheduling a whole figure's
// cell work-list, sequentially versus on a GOMAXPROCS-wide worker pool
// (the output is byte-identical either way; only host wall-clock
// differs).
func BenchmarkRunnerFigures(b *testing.B) {
	for _, cfg := range []struct {
		name        string
		parallelism int
	}{{"seq", 1}, {"par", 0}} {
		b.Run(cfg.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				// A fresh Runner per iteration: the memo cache would
				// otherwise absorb all work after the first pass.
				r := NewRunner(Options{MaxCPUs: 8, Parallelism: cfg.parallelism})
				if _, err := r.Figures("fig7a", "fig8a"); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// storeBenchRecords is the journal length of the Store benchmarks, about
// the cell count of the full figure set.
const storeBenchRecords = 256

// BenchmarkStoreAppend measures one Put: a journal line marshalled,
// appended and fsynced, then indexed.
func BenchmarkStoreAppend(b *testing.B) {
	st, err := OpenStore(b.TempDir())
	if err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	res := Result{App: "smg98", Policy: Full.Key(), CPUs: 16, Elapsed: des.Second, TraceBytes: 1 << 20}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// Cycling through storeBenchRecords keys keeps the index bounded
		// while every Put still appends.
		if err := st.Put(RunSpec{App: "smg98", Policy: Full, CPUs: 1 + i%storeBenchRecords}.Key(), res); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStoreReload measures OpenStore on a journal of
// storeBenchRecords records: read, parse and index every line.
func BenchmarkStoreReload(b *testing.B) {
	dir := b.TempDir()
	st, err := OpenStore(dir)
	if err != nil {
		b.Fatal(err)
	}
	for i := 0; i < storeBenchRecords; i++ {
		res := Result{App: "smg98", Policy: Full.Key(), CPUs: i + 1, Elapsed: des.Time(i+1) * des.Millisecond, TraceBytes: i << 10}
		if err := st.Put(RunSpec{App: "smg98", Policy: Full, CPUs: i + 1}.Key(), res); err != nil {
			b.Fatal(err)
		}
	}
	if err := st.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := OpenStore(dir)
		if err != nil {
			b.Fatal(err)
		}
		if st.Len() != storeBenchRecords {
			b.Fatalf("reloaded %d records, want %d", st.Len(), storeBenchRecords)
		}
		st.Close()
	}
}
