package exp

import (
	"reflect"
	"testing"

	"dynprof/internal/des"
)

// tenantsTestSpec keeps unit-test cells small: 40 sessions over 4 small
// jobs, with an admission limit tight enough to force queueing.
var tenantsTestSpec = TenantsSpec{
	Sessions:    40,
	Jobs:        4,
	ProcsPerJob: 2,
	MaxInFlight: 2,
	Seed:        7,
}

// TestTenantsDeterminism pins that a tenants cell is a pure function of
// its spec: two executions produce identical results, field for field.
func TestTenantsDeterminism(t *testing.T) {
	a, err := runTenantsCell(tenantsTestSpec, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := runTenantsCell(tenantsTestSpec, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("reruns diverged:\n a = %+v\n b = %+v", a, b)
	}
}

// TestTenantsCell checks the small cell's accounting: every session is
// accounted for, the tight admission limit queued arrivals, the abusers
// were evicted, and the percentiles are ordered.
func TestTenantsCell(t *testing.T) {
	r, err := runTenantsCell(tenantsTestSpec, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Completed+r.Evicted+r.Rejected != r.Sessions {
		t.Errorf("sessions unaccounted: completed=%d evicted=%d rejected=%d of %d",
			r.Completed, r.Evicted, r.Rejected, r.Sessions)
	}
	if r.Evicted != 2 {
		t.Errorf("evicted = %d, want 2 (abusers u00000 and u00001)", r.Evicted)
	}
	if r.Queued == 0 {
		t.Error("MaxInFlight=2 never queued an arrival")
	}
	if r.Ops == 0 || r.P50 <= 0 || r.P50 > r.P95 || r.P95 > r.P99 {
		t.Errorf("percentiles unordered: ops=%d p50=%v p95=%v p99=%v", r.Ops, r.P50, r.P95, r.P99)
	}
	if r.Elapsed <= 0 || r.Events == 0 {
		t.Errorf("elapsed=%v events=%d", r.Elapsed, r.Events)
	}
}

// TestTenantsFigureParallelismInvariance runs the figure's 100-session
// sweep point at host parallelism 1 and 8: the assembled figures must be
// identical — the tenants cells are single-scheduler simulations, so host
// concurrency only schedules whole cells.
func TestTenantsFigureParallelismInvariance(t *testing.T) {
	seq, err := NewRunner(Options{MaxCPUs: 100, Parallelism: 1}).Figure("tenants")
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewRunner(Options{MaxCPUs: 100, Parallelism: 8}).Figure("tenants")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(seq, par) {
		t.Fatalf("parallelism changed the figure:\n seq = %+v\n par = %+v", seq, par)
	}
	if len(seq.Series) != 3 {
		t.Fatalf("series = %d, want p50/p95/p99", len(seq.Series))
	}
	for _, s := range seq.Series {
		if len(s.Points) != 1 {
			t.Fatalf("series %s has %d points, want 1 (MaxCPUs=100)", s.Label, len(s.Points))
		}
	}
}

// TestTenantsEvictionNeutrality pins the acceptance criterion of the
// eviction path: evicting the abusive 2% leaves the remaining sessions'
// latency distribution where it was without any abusers — the fair
// scheduler bounds the blast radius.
func TestTenantsEvictionNeutrality(t *testing.T) {
	clean, err := runTenantsCell(TenantsSpec{Sessions: 100, AbusePct: -1, Seed: 2003}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	abused, err := runTenantsCell(TenantsSpec{Sessions: 100, AbusePct: 2, Seed: 2003}, des.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	if clean.Evicted != 0 || abused.Evicted != 2 {
		t.Fatalf("evictions: clean=%d abused=%d", clean.Evicted, abused.Evicted)
	}
	if abused.Completed != 98 {
		t.Fatalf("abused cell completed %d sessions, want 98", abused.Completed)
	}
	// The well-behaved population's tail must not move by more than 50%
	// in either direction (measured headroom is ~1%).
	lo, hi := clean.P95/2+clean.P95, clean.P95/2
	if abused.P95 > lo || abused.P95 < hi {
		t.Errorf("eviction shifted p95 beyond fair-share bounds: clean=%v abused=%v", clean.P95, abused.P95)
	}
}

// TestTenantsPercentile pins percentile's ⌊(n−1)·pct/100⌋ indexing.
func TestTenantsPercentile(t *testing.T) {
	if got := percentile(nil, 99); got != 0 {
		t.Errorf("empty percentile = %v", got)
	}
	samples := make([]des.Time, 100)
	for i := range samples {
		samples[i] = des.Time(i + 1)
	}
	if p := percentile(samples, 50); p != 50 {
		t.Errorf("p50 = %v, want 50", p)
	}
	if p := percentile(samples, 99); p != 99 {
		t.Errorf("p99 = %v, want 99", p)
	}
	if p := percentile(samples[:1], 99); p != 1 {
		t.Errorf("single-sample p99 = %v, want 1", p)
	}
}
