package core

import (
	"fmt"
	"io"

	"dynprof/internal/des"
)

// TimeEntry is one internal-operation timing recorded by dynprof
// ("dynprof is instrumented to collect detailed timings about its internal
// operations, and these timings are written to a timefile").
type TimeEntry struct {
	Name  string
	Start des.Time
	End   des.Time
}

// Duration reports the entry's elapsed time.
func (e TimeEntry) Duration() des.Time { return e.End - e.Start }

// Timefile accumulates dynprof's internal operation timings.
type Timefile struct {
	entries []TimeEntry
}

// NewTimefile returns an empty timefile.
func NewTimefile() *Timefile { return &Timefile{} }

// Begin opens a named interval at start; the returned closure closes it.
func (tf *Timefile) Begin(name string, start des.Time) func(end des.Time) {
	idx := len(tf.entries)
	tf.entries = append(tf.entries, TimeEntry{Name: name, Start: start, End: start})
	return func(end des.Time) { tf.entries[idx].End = end }
}

// Total sums the durations of all intervals with the given name.
func (tf *Timefile) Total(name string) des.Time {
	var sum des.Time
	for _, e := range tf.entries {
		if e.Name == name {
			sum += e.Duration()
		}
	}
	return sum
}

// Write renders the timefile as text: one "name start duration" line per
// interval, durations in seconds.
func (tf *Timefile) Write(w io.Writer) error {
	for _, e := range tf.entries {
		if _, err := fmt.Fprintf(w, "%-12s %12.6f %12.6f\n",
			e.Name, e.Start.Seconds(), e.Duration().Seconds()); err != nil {
			return err
		}
	}
	return nil
}
