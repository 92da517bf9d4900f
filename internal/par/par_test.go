package par

import (
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
)

// TestFor: every index runs exactly once, on at most workers goroutines
// at a time; with one worker or one index the calls run in order on the
// calling goroutine.
func TestFor(t *testing.T) {
	for _, workers := range []int{0, 1, 2, 3} {
		for _, n := range []int{0, 1, 2, 7} {
			ran := make([]atomic.Int32, n)
			var busy, peak atomic.Int32
			var order []int
			For(workers, n, func(i int) {
				b := busy.Add(1)
				for p := peak.Load(); b > p && !peak.CompareAndSwap(p, b); p = peak.Load() {
				}
				ran[i].Add(1)
				if workers <= 1 || n == 1 {
					order = append(order, i)
				}
				busy.Add(-1)
			})
			for i := range ran {
				if got := ran[i].Load(); got != 1 {
					t.Fatalf("For(%d, %d): index %d ran %d times", workers, n, i, got)
				}
			}
			if p := int(peak.Load()); p > max(workers, 1) {
				t.Errorf("For(%d, %d): %d calls at once", workers, n, p)
			}
			if (workers <= 1 || n == 1) && len(order) != n {
				t.Errorf("For(%d, %d): inline calls ran in order %v", workers, n, order)
			}
			for i, got := range order {
				if got != i {
					t.Errorf("For(%d, %d): inline calls ran in order %v", workers, n, order)
					break
				}
			}
		}
	}
}

// TestPipelineOrder: every job is produced and consumed once, in index
// order, its slot is its index modulo the window, and no more than the
// window of jobs is ever between produce and consume.
func TestPipelineOrder(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 4} {
		const n = 50
		window := 2 * workers
		var produced, consumed int
		owner := make([]int, window) // the job holding each slot, -1 if none
		for s := range owner {
			owner[s] = -1
		}
		err := Pipeline(workers,
			func(i, slot int) (bool, error) {
				if i != produced || slot != i%window {
					t.Fatalf("workers %d: produced job %d in slot %d, want job %d", workers, i, slot, produced)
				}
				if i == n {
					return false, nil
				}
				if owner[slot] != -1 || produced-consumed >= window {
					t.Fatalf("workers %d: job %d produced while %d jobs are in flight", workers, i, produced-consumed)
				}
				owner[slot] = i
				produced++
				return true, nil
			},
			func(i, slot, w int) error {
				if w < 0 || w >= workers {
					t.Errorf("worker index %d of %d", w, workers)
				}
				return nil
			},
			func(i, slot int) error {
				if i != consumed || owner[slot] != i {
					t.Fatalf("workers %d: consumed job %d (slot holds %d), want job %d", workers, i, owner[slot], consumed)
				}
				owner[slot] = -1
				consumed++
				return nil
			})
		if err != nil || consumed != n {
			t.Fatalf("workers %d: consumed %d of %d jobs, err %v", workers, consumed, n, err)
		}
	}
}

// TestPipelineFirstError: the error returned is the first in index order,
// whichever stage raised it and whenever, and nothing is consumed from the
// failing job on.
func TestPipelineFirstError(t *testing.T) {
	const n = 20
	cases := []struct {
		name                         string
		produceAt, workAt, consumeAt int // the failing job of each stage; -1 for none
		want                         string
	}{
		{"work before produce", 8, 3, -1, "work 3"},
		{"produce before work", 3, 8, -1, "produce 3"},
		{"consume before work", -1, 9, 4, "consume 4"},
		{"work before consume", -1, 4, 9, "work 4"},
		{"work at the last job produced", 6, 5, -1, "work 5"},
	}
	for _, c := range cases {
		for _, workers := range []int{1, 2, 4} {
			var consumed atomic.Int32
			err := Pipeline(workers,
				func(i, _ int) (bool, error) {
					if i == c.produceAt {
						return false, fmt.Errorf("produce %d", i)
					}
					return i < n, nil
				},
				func(i, _, _ int) error {
					if i == c.workAt {
						return fmt.Errorf("work %d", i)
					}
					return nil
				},
				func(i, _ int) error {
					consumed.Add(1)
					if i == c.consumeAt {
						return fmt.Errorf("consume %d", i)
					}
					return nil
				})
			if err == nil || err.Error() != c.want {
				t.Fatalf("%s, workers %d: err %v, want %s", c.name, workers, err, c.want)
			}
			if got, want := int(consumed.Load()), firstIndex(c.want); got != want {
				t.Fatalf("%s, workers %d: consumed %d jobs, want %d", c.name, workers, got, want)
			}
		}
	}
	if err := Pipeline(2, func(int, int) (bool, error) { return false, errors.New("empty") }, nil, nil); err == nil || err.Error() != "empty" {
		t.Fatalf("a failing first produce: err %v", err)
	}
}

// firstIndex is how many jobs a pipeline whose first error is want (as
// "stage N") consumes: the jobs before N, and job N itself if consume
// raised it.
func firstIndex(want string) int {
	var stage string
	var i int
	fmt.Sscanf(want, "%s %d", &stage, &i)
	if stage == "consume" {
		return i + 1
	}
	return i
}
