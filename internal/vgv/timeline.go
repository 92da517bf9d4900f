package vgv

import (
	"bytes"
	"cmp"
	"fmt"
	"io"
	"math/bits"
	"slices"

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

// timelineLane is one lane's open-interval depths and its row, drawn as
// each interval closes.
type timelineLane struct {
	funcDepth   int
	funcFrom    des.Time
	apiDepth    int
	apiFrom     des.Time
	regionDepth int
	regionFrom  des.Time
	row         []byte // nil until the lane's first interval closes
}

// timeline is RenderTimeline's state: the lanes and the column scale they
// are drawn at.
type timeline struct {
	lanes *laneTable[timelineLane, struct{}]
	start des.Time
	span  uint64 // end - start, taken unsigned: it can pass 2⁶³
	width int
}

// bucket returns the column of time t, in [start, end]. The offset from
// start is taken unsigned and its product with width in 128 bits, since
// both can pass 2⁶³.
func (tl *timeline) bucket(t des.Time) int {
	hi, lo := bits.Mul64(uint64(t)-uint64(tl.start), uint64(tl.width))
	q, _ := bits.Div64(hi, lo, tl.span)
	return min(int(q), tl.width-1)
}

// draw marks the interval [from, to] of ls in glyph where glyph outranks
// what the columns show. The marks commute, so intervals may be drawn in
// any order.
func (tl *timeline) draw(ls *timelineLane, from, to des.Time, glyph byte) {
	if ls.row == nil {
		ls.row = bytes.Repeat([]byte{glyphIdle}, tl.width)
	}
	for b := tl.bucket(from); b <= tl.bucket(to); b++ {
		if glyphPriority[glyph] > glyphPriority[ls.row[b]] {
			ls.row[b] = glyph
		}
	}
}

// RenderTimeline draws the trace as an ASCII time-line, one row per
// (rank, thread) lane, width columns wide, in (rank, tid) order. It is one
// scan of the ordered view on the calling goroutine: a second worker would
// have to read every event as well to find its own lanes'.
func RenderTimeline(col *vt.Collector, w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	view := col.Ordered()
	if view.Len() == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	start, end := view.Span()
	if end == start {
		end = start + 1
	}
	span := uint64(end) - uint64(start)

	tl := &timeline{lanes: newLaneTable[timelineLane, struct{}](view.Len()), start: start, span: span, width: width}
	tl.scan(view)
	order := make([]int, len(tl.lanes.keys))
	for l := range order {
		order[l] = l
	}
	keys := tl.lanes.keys
	slices.SortFunc(order, func(i, j int) int {
		return cmp.Or(cmp.Compare(keys[i].rank, keys[j].rank), cmp.Compare(keys[i].tid, keys[j].tid))
	})

	ew := &errWriter{w: w}
	ew.printf("time-line %v .. %v (%d columns, %v/column)\n",
		start, end, width, des.Time(span/uint64(width)))
	for _, l := range order {
		row := tl.lanes.lanes[l].row
		if row == nil {
			row = bytes.Repeat([]byte{glyphIdle}, width)
		}
		ew.printf("r%02d/t%02d |%s|\n", keys[l].rank, keys[l].tid, row)
	}
	ew.printf("legend: %c function  %c MPI  %c OpenMP region (wiggle)  %c idle\n",
		glyphFunc, glyphAPI, glyphRegion, glyphIdle)
	return ew.err
}

// scan draws every lane from the view: a lane's function, MPI and region
// intervals run from the outermost enter of their kind to its matching
// exit.
func (tl *timeline) scan(view vt.View) {
	for _, events := range view.Chunks() {
		for i := range events {
			e := &events[i]
			ls, _ := tl.lanes.get(e)
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
						tl.draw(ls, ls.funcFrom, e.At, glyphFunc)
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
						tl.draw(ls, ls.apiFrom, e.At, glyphAPI)
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
						tl.draw(ls, ls.regionFrom, e.At, glyphRegion)
					}
				}
			}
		}
	}
}
