// Package des implements a deterministic discrete-event simulation kernel.
//
// All simulated activity in this repository — application ranks, OpenMP
// threads, DPCL daemons and the dynprof instrumenter itself — runs as
// coroutine Procs driven by a single Scheduler. Exactly one Proc executes
// at any instant (virtual parallelism, physical sequentiality), which makes
// every simulation run bit-for-bit deterministic for a given seed.
package des

import (
	"fmt"
	"math"
	"strconv"
)

// Time is a point in virtual time, measured in virtual nanoseconds from the
// start of the simulation. It is also used for durations.
type Time int64

// Common durations, mirroring time.Duration's constants.
const (
	Nanosecond  Time = 1
	Microsecond Time = 1000 * Nanosecond
	Millisecond Time = 1000 * Microsecond
	Second      Time = 1000 * Millisecond
)

// Seconds reports t as a floating-point number of virtual seconds.
func (t Time) Seconds() float64 { return float64(t) / float64(Second) }

// Milliseconds reports t as a floating-point number of virtual milliseconds.
func (t Time) Milliseconds() float64 { return float64(t) / float64(Millisecond) }

// ParseSeconds parses s, a non-negative decimal number of seconds, into
// a duration to be waited from virtual time now. It rejects NaN, the
// infinities, and a duration whose end, now plus its nanoseconds, does
// not fit a Time.
func ParseSeconds(s string, now Time) (Time, error) {
	secs, err := strconv.ParseFloat(s, 64)
	ns := secs * float64(Second)
	// float64(math.MaxInt64) rounds up to 2⁶³, so ns below it converts
	// exactly into range; NaN fails every comparison.
	if err != nil || !(ns >= 0 && ns < float64(math.MaxInt64)) || Time(ns) > math.MaxInt64-now {
		return 0, fmt.Errorf("des: bad duration %q", s)
	}
	return Time(ns), nil
}

// String renders t with an auto-selected unit, e.g. "1.500ms".
func (t Time) String() string {
	switch {
	case t < 0:
		return "-" + (-t).String()
	case t < Microsecond:
		return fmt.Sprintf("%dns", int64(t))
	case t < Millisecond:
		return fmt.Sprintf("%.3fus", float64(t)/float64(Microsecond))
	case t < Second:
		return fmt.Sprintf("%.3fms", float64(t)/float64(Millisecond))
	default:
		return fmt.Sprintf("%.3fs", t.Seconds())
	}
}
