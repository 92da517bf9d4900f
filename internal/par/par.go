// Package par spreads host work over goroutines: the post-run stages of
// the trace path (merging, encoding, decoding and analysing a trace), the
// shards of a des.Cluster round and the Runner's cell groups. Each user
// has one code path: on one worker it runs the same code inline, and its
// output never depends on how many workers ran it.
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers is the number of workers a stage splits into: GOMAXPROCS.
func Workers() int { return runtime.GOMAXPROCS(0) }

// For calls fn(0), ..., fn(n-1) on min(workers, n) goroutines, which
// claim the indices in order, and returns once every call has returned.
// With one worker or one index the calls run in order on the calling
// goroutine, which starts none.
func For(workers, n int, fn func(i int)) {
	workers = min(workers, n)
	if workers <= 1 {
		for i := range n {
			fn(i)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for i := int(next.Add(1) - 1); i < n; i = int(next.Add(1) - 1) {
				fn(i)
			}
		}()
	}
	wg.Wait()
}

// Pipeline runs jobs 0, 1, ... through three stages:
//
//   - produce(i, slot), on the calling goroutine in index order, prepares
//     job i, or reports that there are no more jobs (false) or fails;
//   - work(i, slot, w), on worker w of workers, does the job's heavy part;
//   - consume(i, slot), on the calling goroutine in index order, takes the
//     finished job.
//
// At most 2 × workers jobs are between produce and consume at once, and
// job i's slot is i mod that window, so per-slot buffers bound the memory
// a pipeline holds. The error returned is the first in index order: a
// work or consume failure of job i wins over a produce failure at a later
// index, exactly as if the jobs had run one after another. After a failure
// no job is produced or consumed, and the jobs already produced finish
// their work before Pipeline returns.
func Pipeline(workers int, produce func(i, slot int) (bool, error), work func(i, slot, w int) error, consume func(i, slot int) error) error {
	window := 2 * workers
	jobs := make(chan int, window) // holds every job in flight, so produce never blocks
	// A slot's next job is produced only after its previous one was
	// consumed, so one buffered result per slot never blocks a worker.
	done := make([]chan error, window)
	for s := range done {
		done[s] = make(chan error, 1)
	}
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := range workers {
		go func() {
			defer wg.Done()
			for i := range jobs {
				done[i%window] <- work(i, i%window, w)
			}
		}()
	}
	defer func() {
		close(jobs)
		wg.Wait()
	}()
	var produceErr error
	more := true
	for next, head := 0, 0; ; head++ {
		for more && next-head < window {
			if more, produceErr = produce(next, next%window); more && produceErr == nil {
				jobs <- next
				next++
			} else {
				more = false
			}
		}
		if head == next {
			return produceErr
		}
		if err := <-done[head%window]; err != nil {
			return err
		}
		if err := consume(head, head%window); err != nil {
			return err
		}
	}
}
