package vt

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// This file holds the ordered pipeline both directions of the textual
// trace codec run on (event.go). The calling goroutine produces items in
// stream order and consumes them in the same order; runtime.GOMAXPROCS(0)
// workers transform the items in between. Items live in a ring of
// 2×workers+2 slots, so the memory in flight is a constant number of items
// whatever the stream's length.
//
// A slot is transformed by whoever claims it first: a worker, or the
// caller once the slot is the oldest one and still unclaimed. So the
// caller never waits for a worker to be scheduled: a short stream is
// handled inline, and on one CPU the caller does nearly all the work
// itself, with no hand-off per item.

// pipeSlot is one slot of a pipeline's ring: the item, the claim that
// decides who transforms it, and the signal a worker sends once it has.
type pipeSlot[T any] struct {
	item    T
	claimed atomic.Bool
	done    chan struct{}
}

// newSlot returns a ring slot holding item, for a pipeline's slot pool.
func newSlot[T any](item T) *pipeSlot[T] {
	return &pipeSlot[T]{item: item, done: make(chan struct{}, 1)}
}

// runPipeline runs an ordered parallel map over a ring of items taken from
// slots, a pool of *pipeSlot[T], as the stream needs them:
//   - produce fills the next item in stream order and reports false,
//     leaving the item unused, once the stream is exhausted;
//   - work transforms one produced item;
//   - consume takes the transformed items in production order.
//
// produce and consume run on the calling goroutine, work on a worker or on
// the caller. The first consume error stops the pipeline: produce is not
// called again, and the items still in flight are dropped. runPipeline
// returns that error, or nil, only once every goroutine it started has
// exited. The items go back to slots, keeping whatever buffers they grew.
func runPipeline[T any](slots *sync.Pool, produce func(*T) bool, work func(*T), consume func(*T) error) error {
	workers := runtime.GOMAXPROCS(0)
	ring := 2*workers + 2
	// A slot is sent once per item it holds, and a slot the caller
	// transformed itself stays queued until a worker skips it, so jobs
	// can hold more entries than the ring has slots; a full jobs only
	// makes the caller wait for a worker to drain it.
	jobs := make(chan *pipeSlot[T], 2*ring)
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for s := range jobs {
				if s.claimed.CompareAndSwap(false, true) {
					work(&s.item)
					s.done <- struct{}{}
				}
			}
		}()
	}
	// Item k lives in made[k%ring]: items are consumed in production
	// order, so that slot is free again once item k-ring is consumed.
	made := make([]*pipeSlot[T], 0, ring)
	defer func() {
		close(jobs)
		wg.Wait()
		for _, s := range made {
			select {
			case <-s.done: // transformed by a worker but never consumed
			default:
			}
			slots.Put(s)
		}
	}()
	for produced, consumed, more := 0, 0, true; ; consumed++ {
		for more && produced-consumed < ring {
			if produced%ring == len(made) {
				made = append(made, slots.Get().(*pipeSlot[T]))
			}
			s := made[produced%ring]
			if more = produce(&s.item); more {
				s.claimed.Store(false)
				jobs <- s
				produced++
			}
		}
		if consumed == produced {
			return nil
		}
		s := made[consumed%ring]
		if s.claimed.CompareAndSwap(false, true) {
			work(&s.item)
		} else {
			<-s.done
		}
		if err := consume(&s.item); err != nil {
			return err
		}
	}
}
