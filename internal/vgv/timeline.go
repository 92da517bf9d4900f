package vgv

import (
	"fmt"
	"io"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// Timeline glyphs: the main time-line display shows processes and threads
// as horizontal bars; a wiggle is superimposed for OpenMP parallel
// regions, and MPI library activity is shown distinctly.
const (
	glyphIdle   = '.'
	glyphFunc   = '#'
	glyphAPI    = 'M'
	glyphRegion = '~'
)

// glyphPriority decides which glyph a bucket shows when intervals overlap
// it: the region wiggle wins (it is "superimposed"), then MPI activity,
// then plain function bars.
var glyphPriority = [128]int8{glyphIdle: 0, glyphFunc: 1, glyphAPI: 2, glyphRegion: 3}

// interval is one [from, to) span with a category.
type interval struct {
	from, to des.Time
	kind     byte
}

// timelineLane is one lane's open-interval depths and finished intervals.
type timelineLane struct {
	funcDepth   int
	funcFrom    des.Time
	apiDepth    int
	apiFrom     des.Time
	regionDepth int
	regionFrom  des.Time
	ivs         []interval
}

// RenderTimeline draws the trace as an ASCII time-line, one row per
// (rank, thread) lane, width columns wide.
func RenderTimeline(col *vt.Collector, w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	events := col.Events()
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	start, end := events[0].At, events[len(events)-1].At
	if end == start {
		end = start + 1
	}

	// Build per-lane interval sets from the event stream.
	lanes := newLaneCache[timelineLane]()
	for i := range events {
		e := &events[i]
		ls := lanes.get(e)
		switch e.Kind {
		case vt.Enter:
			if ls.funcDepth == 0 {
				ls.funcFrom = e.At
			}
			ls.funcDepth++
		case vt.Exit:
			if ls.funcDepth > 0 {
				ls.funcDepth--
				if ls.funcDepth == 0 {
					ls.ivs = append(ls.ivs, interval{ls.funcFrom, e.At, glyphFunc})
				}
			}
		case vt.APIEnter:
			if ls.apiDepth == 0 {
				ls.apiFrom = e.At
			}
			ls.apiDepth++
		case vt.APIExit:
			if ls.apiDepth > 0 {
				ls.apiDepth--
				if ls.apiDepth == 0 {
					ls.ivs = append(ls.ivs, interval{ls.apiFrom, e.At, glyphAPI})
				}
			}
		case vt.RegionEnter:
			if ls.regionDepth == 0 {
				ls.regionFrom = e.At
			}
			ls.regionDepth++
		case vt.RegionExit:
			if ls.regionDepth > 0 {
				ls.regionDepth--
				if ls.regionDepth == 0 {
					ls.ivs = append(ls.ivs, interval{ls.regionFrom, e.At, glyphRegion})
				}
			}
		}
	}

	keys := make([]laneKey, 0, len(lanes.m))
	for k := range lanes.m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].tid < keys[j].tid
	})

	span := end - start
	bucket := func(t des.Time) int {
		b := int(int64(t-start) * int64(width) / int64(span))
		if b >= width {
			b = width - 1
		}
		if b < 0 {
			b = 0
		}
		return b
	}

	ew := &errWriter{w: w}
	ew.printf("time-line %v .. %v (%d columns, %v/column)\n",
		start, end, width, span/des.Time(width))
	row := make([]byte, width)
	for _, k := range keys {
		for i := range row {
			row[i] = glyphIdle
		}
		for _, iv := range lanes.m[k].ivs {
			lo, hi := bucket(iv.from), bucket(iv.to)
			for b := lo; b <= hi; b++ {
				if glyphPriority[iv.kind] > glyphPriority[row[b]] {
					row[b] = iv.kind
				}
			}
		}
		ew.printf("r%02d/t%02d |%s|\n", k.rank, k.tid, row)
	}
	ew.printf("legend: %c function  %c MPI  %c OpenMP region (wiggle)  %c idle\n",
		glyphFunc, glyphAPI, glyphRegion, glyphIdle)
	return ew.err
}
