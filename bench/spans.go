package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"dynprof/internal/des"
)

// Span clocks: host spans time the simulator, virtual spans time the
// simulated tool.
const (
	clockHost    = "host"
	clockVirtual = "virtual"
)

// span is one recorded interval at a layer boundary. Host spans are in
// seconds since the traced child started measuring; virtual spans are in
// simulated seconds. Parent 0 marks a root.
type span struct {
	ID       int     `json:"id"`
	Parent   int     `json:"parent"`
	Workload string  `json:"workload"`
	Layer    string  `json:"layer"`
	Name     string  `json:"name"`
	Clock    string  `json:"clock"`
	Start    float64 `json:"start"`
	End      float64 `json:"end"`
}

// tracer keeps the spans of one traced run in memory. Every method is a
// no-op on a nil tracer, so untraced runs pay one nil check per boundary.
// A tracer is used from one goroutine at a time: the benchmark records from
// its own goroutine or from DES procs, which the scheduler runs one by one.
type tracer struct {
	workload string
	t0       time.Time
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, t0: time.Now()}
}

func (t *tracer) open(parent int, layer, name, clock string, start float64) int {
	if t == nil {
		return 0
	}
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Workload: t.workload,
		Layer: layer, Name: name, Clock: clock, Start: start, End: start})
	return len(t.spans)
}

func (t *tracer) close(id int, end float64) {
	if t == nil || id == 0 {
		return
	}
	t.spans[id-1].End = end
}

// host opens a host-clock span starting now; done closes it.
func (t *tracer) host(parent int, layer, name string) int {
	if t == nil {
		return 0
	}
	return t.open(parent, layer, name, clockHost, time.Since(t.t0).Seconds())
}

func (t *tracer) done(id int) {
	if t == nil {
		return
	}
	t.close(id, time.Since(t.t0).Seconds())
}

// virt opens a virtual-clock span at simulated time at; virtDone closes it.
func (t *tracer) virt(parent int, layer, name string, at des.Time) int {
	return t.open(parent, layer, name, clockVirtual, at.Seconds())
}

func (t *tracer) virtDone(id int, at des.Time) { t.close(id, at.Seconds()) }

// selfTime sums each layer's self time per clock: a span's duration minus
// the part its same-clock children cover. Children of one span do not
// overlap in this benchmark (each layer call returns before the next
// starts), so subtracting their durations is exact.
func selfTime(spans []span) map[string]float64 {
	child := make(map[int]float64)
	for _, s := range spans {
		if s.Parent != 0 && spans[s.Parent-1].Clock == s.Clock {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := make(map[string]float64)
	for _, s := range spans {
		self[s.Clock+" "+s.Layer] += s.End - s.Start - child[s.ID]
	}
	return self
}

// writeSelfTime prints the self-time table of one workload's spans.
func writeSelfTime(w io.Writer, spans []span) {
	self := selfTime(spans)
	keys := make([]string, 0, len(self))
	for k := range self {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	fmt.Fprintf(w, "  span self time (%d spans):\n", len(spans))
	for _, k := range keys {
		fmt.Fprintf(w, "    %-20s %12.6f s\n", k, self[k])
	}
}

// writeSpans saves spans as one JSON array.
func writeSpans(path string, spans []span) error {
	b, err := json.Marshal(spans)
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}

// readSpans loads a span file written by writeSpans.
func readSpans(path string) ([]span, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var spans []span
	if err := json.Unmarshal(b, &spans); err != nil {
		return nil, fmt.Errorf("bench: span file %s: %w", path, err)
	}
	return spans, nil
}
