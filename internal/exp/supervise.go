package exp

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
	"time"

	"dynprof/internal/des"
)

// This file is the harness's reliability boundary: every cell the Runner
// executes goes through superviseCell, which isolates the rest of a sweep
// from one misbehaving cell. Three failure classes are distinguished:
//
//   - panic: the cell's simulation (or its model code) panicked. Panics
//     are deterministic for a given spec, so they fail fast — retrying
//     would reproduce them.
//   - livelock: the cell's DES exhausted its Options.Budget
//     (*des.LivelockError). Retryable, as a livelock may be an artifact
//     of a budget set too tight for the attempt.
//   - timeout: the cell's attempt exceeded Options.CellTimeout of host
//     wall-clock time. Retryable. The attempt's goroutine is abandoned
//     (a goroutine cannot be killed); pair CellTimeout with a Budget so
//     an abandoned simulation also stops consuming CPU.
//
// Any other error (model errors, unknown apps) is "error" and fails fast.

// FailureCause classifies why a supervised cell failed. Values are stable
// strings: they are part of the JSONL wire format.
type FailureCause string

const (
	// CausePanic marks a panic inside the cell's execution.
	CausePanic FailureCause = "panic"
	// CauseLivelock marks a DES budget exhaustion (*des.LivelockError).
	CauseLivelock FailureCause = "livelock"
	// CauseTimeout marks a host wall-clock watchdog expiry.
	CauseTimeout FailureCause = "timeout"
	// CauseError marks any other cell error (fails fast, not retried).
	CauseError FailureCause = "error"
)

// CellFailure is the structured record of one figure cell that exhausted
// supervision: the figure assembles with a NaN hole at the cell's position
// and the record lands in Figure.Failures (and on the JSONL stream).
type CellFailure struct {
	Figure string `json:"figure"`
	Series string `json:"series"`
	CPUs   int    `json:"cpus"`
	Key    string `json:"key"`
	// Cause classifies the final attempt's failure.
	Cause FailureCause `json:"cause"`
	// Attempts is the number of execution attempts made.
	Attempts int `json:"attempts"`
	// Error is the final attempt's error message (stack-free, so the
	// record is identical at any parallelism).
	Error string `json:"error"`
}

// CellPanicError reports a panic recovered while executing a cell outside
// any simulated Proc (Proc panics arrive as *des.ProcPanicError instead).
type CellPanicError struct {
	// Value is the recovered panic value.
	Value any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

// Error renders the panic value without the stack.
func (e *CellPanicError) Error() string { return fmt.Sprintf("exp: cell panicked: %v", e.Value) }

// Unwrap exposes the panic value when it is itself an error, so
// errors.As(err, **des.ProcPanicError) works through the wrapper.
func (e *CellPanicError) Unwrap() error {
	if err, ok := e.Value.(error); ok {
		return err
	}
	return nil
}

// CellTimeoutError reports a cell attempt that exceeded the host
// wall-clock watchdog.
type CellTimeoutError struct {
	// Timeout is the per-attempt bound that expired.
	Timeout time.Duration
}

func (e *CellTimeoutError) Error() string {
	return fmt.Sprintf("exp: cell exceeded host deadline %v", e.Timeout)
}

// CauseOf classifies a supervised cell error for failure records.
func CauseOf(err error) FailureCause {
	var (
		ll *des.LivelockError
		pp *des.ProcPanicError
		cp *CellPanicError
		to *CellTimeoutError
	)
	switch {
	case errors.As(err, &ll):
		return CauseLivelock
	case errors.As(err, &to):
		return CauseTimeout
	case errors.As(err, &pp), errors.As(err, &cp):
		return CausePanic
	default:
		return CauseError
	}
}

// Retryable reports whether a failure class is worth another attempt:
// livelocks and timeouts are (they bound a run from outside and may pass
// on retry); panics and model errors are deterministic and fail fast.
func Retryable(err error) bool {
	c := CauseOf(err)
	return c == CauseLivelock || c == CauseTimeout
}

// retryBackoffBase is the host delay before the second attempt.
// Subsequent attempts double it.
const retryBackoffBase = 10 * time.Millisecond

// maxRetryBackoff caps the exponential growth.
const maxRetryBackoff = time.Second

// maxAttempts resolves the per-cell attempt bound (at least 1).
func (o Options) maxAttempts() int {
	if o.MaxAttempts > 1 {
		return o.MaxAttempts
	}
	return 1
}

// retryBackoff is the host delay before attempt+1, growing exponentially
// from retryBackoffBase and capped at maxRetryBackoff.
func retryBackoff(attempt int) time.Duration {
	d := retryBackoffBase
	for i := 1; i < attempt && d < maxRetryBackoff; i++ {
		d *= 2
	}
	if d > maxRetryBackoff {
		d = maxRetryBackoff
	}
	return d
}

// ranScheduler, when set, sees every cell's scheduler once its run has
// returned, on the goroutine that ran it. Tests use it to count the DES
// events a cell executed.
var ranScheduler atomic.Pointer[func(*des.Scheduler)]

// runScheduler drives one cell's scheduler. A Proc panic comes back as a
// *des.ProcPanicError; a panic raised in event context, outside any Proc,
// unwinds to superviseCell.
func runScheduler(s *des.Scheduler) error {
	if f := ranScheduler.Load(); f != nil {
		defer (*f)(s)
	}
	return s.Run()
}

// attemptOutcome carries one attempt's result out of its goroutine.
type attemptOutcome struct {
	val cellResult
	err error
}

// runAttempt executes one supervised attempt of a cell: the execution runs
// on its own goroutine behind a recover barrier, and a wall-clock watchdog
// (when Options.CellTimeout is set) abandons attempts that wedge the host.
func runAttempt(run func(des.Budget) (cellResult, error), opts Options) (cellResult, error) {
	ch := make(chan attemptOutcome, 1)
	go func() {
		defer func() {
			if r := recover(); r != nil {
				ch <- attemptOutcome{err: &CellPanicError{Value: r, Stack: debug.Stack()}}
			}
		}()
		v, err := run(opts.Budget)
		ch <- attemptOutcome{val: v, err: err}
	}()
	if opts.CellTimeout <= 0 {
		out := <-ch
		return out.val, out.err
	}
	watchdog := time.NewTimer(opts.CellTimeout)
	defer watchdog.Stop()
	select {
	case out := <-ch:
		return out.val, out.err
	case <-watchdog.C:
		return nil, &CellTimeoutError{Timeout: opts.CellTimeout}
	}
}

// superviseCell executes one cell's run under the supervision policy:
// bounded retry with exponential backoff for retryable failures, fail-fast
// for deterministic ones. attempts reports how many executions were made.
func superviseCell(run func(des.Budget) (cellResult, error), opts Options) (val cellResult, err error, attempts int) {
	limit := opts.maxAttempts()
	for attempts = 1; ; attempts++ {
		val, err = runAttempt(run, opts)
		if err == nil || !Retryable(err) || attempts >= limit {
			return val, err, attempts
		}
		time.Sleep(retryBackoff(attempts))
	}
}
