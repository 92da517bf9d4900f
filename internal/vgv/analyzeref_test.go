package vgv

import (
	"fmt"
	"io"
	"math/big"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/vt"
)

// This file keeps the straightforward map-per-event implementation of the
// analysis and the time-line renderer as a reference oracle: the
// differential tests require Analyze to produce a deeply equal Profile and
// RenderTimeline the same bytes.

// refFrame is one open invocation on a lane's call stack, keyed by name.
type refFrame struct {
	name    string
	enterAt des.Time
	child   des.Time
}

// refAnalyze is the reference Analyze.
func refAnalyze(col *vt.Collector) *Profile {
	events := col.Ordered().AppendTo(nil)
	p := &Profile{}
	stacks := make(map[laneKey][]refFrame)
	agg := make(map[string]*FuncStat)
	ranks := make(map[int32]bool)
	lanes := make(map[laneKey]bool)
	edges := make(map[[2]int32]*CommEdge)

	get := func(name string) *FuncStat {
		st, ok := agg[name]
		if !ok {
			st = &FuncStat{Name: name}
			agg[name] = st
		}
		return st
	}
	callEdges := make(map[[2]string]*CallEdge)
	closeFrame := func(lane laneKey, f refFrame, at des.Time) {
		inc := at - f.enterAt
		if inc < 0 {
			inc = 0
		}
		st := get(f.name)
		st.Calls++
		st.Inclusive += inc
		st.Exclusive += inc - f.child
		caller := "(root)"
		if s := stacks[lane]; len(s) > 0 {
			s[len(s)-1].child += inc
			caller = s[len(s)-1].name
		}
		key := [2]string{caller, f.name}
		edge, ok := callEdges[key]
		if !ok {
			edge = &CallEdge{Caller: caller, Callee: f.name}
			callEdges[key] = edge
		}
		edge.Calls++
		edge.Time += inc
	}

	if len(events) > 0 {
		p.Start = events[0].At
		p.End = events[len(events)-1].At
	}
	for _, e := range events {
		lane := laneKey{rank: e.Rank, tid: e.TID}
		ranks[e.Rank] = true
		lanes[lane] = true
		name := col.FuncName(e.Rank, e.ID)
		switch e.Kind {
		case vt.Enter, vt.APIEnter:
			stacks[lane] = append(stacks[lane], refFrame{name: name, enterAt: e.At})
		case vt.Exit, vt.APIExit:
			s := stacks[lane]
			if len(s) == 0 || s[len(s)-1].name != name {
				p.Unbalanced++
				continue
			}
			f := s[len(s)-1]
			stacks[lane] = s[:len(s)-1]
			closeFrame(lane, f, e.At)
		case vt.MsgSend:
			p.Msgs.Sends++
			p.Msgs.Bytes += e.B
			key := [2]int32{e.Rank, int32(e.A)}
			edge, ok := edges[key]
			if !ok {
				edge = &CommEdge{From: e.Rank, To: int32(e.A)}
				edges[key] = edge
			}
			edge.Msgs++
			edge.Bytes += e.B
		case vt.MsgRecv:
			p.Msgs.Recvs++
		}
	}
	for lane, s := range stacks {
		for i := len(s) - 1; i >= 0; i-- {
			p.Unbalanced++
			stacks[lane] = s[:i]
			closeFrame(lane, s[i], p.End)
		}
	}
	for _, st := range agg {
		p.Funcs = append(p.Funcs, *st)
	}
	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Exclusive != p.Funcs[j].Exclusive {
			return p.Funcs[i].Exclusive > p.Funcs[j].Exclusive
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	for _, e := range callEdges {
		p.CallGraph = append(p.CallGraph, *e)
	}
	sort.Slice(p.CallGraph, func(i, j int) bool {
		if p.CallGraph[i].Time != p.CallGraph[j].Time {
			return p.CallGraph[i].Time > p.CallGraph[j].Time
		}
		if p.CallGraph[i].Caller != p.CallGraph[j].Caller {
			return p.CallGraph[i].Caller < p.CallGraph[j].Caller
		}
		return p.CallGraph[i].Callee < p.CallGraph[j].Callee
	})
	for _, e := range edges {
		p.Comm = append(p.Comm, *e)
	}
	sort.Slice(p.Comm, func(i, j int) bool {
		if p.Comm[i].Bytes != p.Comm[j].Bytes {
			return p.Comm[i].Bytes > p.Comm[j].Bytes
		}
		if p.Comm[i].From != p.Comm[j].From {
			return p.Comm[i].From < p.Comm[j].From
		}
		return p.Comm[i].To < p.Comm[j].To
	})
	p.Ranks = len(ranks)
	p.Threads = len(lanes)
	return p
}

// interval is one [from, to] span of a reference time-line lane, drawn in
// glyph kind.
type interval struct {
	from, to des.Time
	kind     byte
}

// refRenderTimeline is the reference RenderTimeline: it keeps every lane's
// intervals and draws them after the scan.
func refRenderTimeline(col *vt.Collector, w io.Writer, width int) error {
	if width < 10 {
		width = 10
	}
	events := col.Ordered().AppendTo(nil)
	if len(events) == 0 {
		_, err := fmt.Fprintln(w, "(empty trace)")
		return err
	}
	start, end := events[0].At, events[len(events)-1].At
	if end == start {
		end = start + 1
	}

	type laneState struct {
		funcDepth   int
		funcFrom    des.Time
		apiDepth    int
		apiFrom     des.Time
		regionDepth int
		regionFrom  des.Time
		ivs         []interval
	}
	lanes := make(map[laneKey]*laneState)
	get := func(k laneKey) *laneState {
		ls, ok := lanes[k]
		if !ok {
			ls = &laneState{}
			lanes[k] = ls
		}
		return ls
	}
	for _, e := range events {
		ls := get(laneKey{rank: e.Rank, tid: e.TID})
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

	keys := make([]laneKey, 0, len(lanes))
	for k := range lanes {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].rank != keys[j].rank {
			return keys[i].rank < keys[j].rank
		}
		return keys[i].tid < keys[j].tid
	})

	// Exact unsigned offsets: end-start, and an offset times width, can
	// pass 2⁶³.
	span := new(big.Int).Sub(big.NewInt(int64(end)), big.NewInt(int64(start)))
	if span.Sign() < 0 {
		span.SetInt64(1) // a one-instant trace at MaxInt64: end wrapped
	}
	bucket := func(t des.Time) int {
		b := new(big.Int).Sub(big.NewInt(int64(t)), big.NewInt(int64(start)))
		b.Mul(b, big.NewInt(int64(width))).Quo(b, span)
		return int(min(b.Int64(), int64(width-1)))
	}
	priority := map[rune]int{glyphIdle: 0, glyphFunc: 1, glyphAPI: 2, glyphRegion: 3}

	fmt.Fprintf(w, "time-line %v .. %v (%d columns, %v/column)\n",
		start, end, width, des.Time(new(big.Int).Quo(span, big.NewInt(int64(width))).Int64()))
	for _, k := range keys {
		row := make([]rune, width)
		for i := range row {
			row[i] = glyphIdle
		}
		for _, iv := range lanes[k].ivs {
			lo, hi := bucket(iv.from), bucket(iv.to)
			for b := lo; b <= hi; b++ {
				if priority[rune(iv.kind)] > priority[row[b]] {
					row[b] = rune(iv.kind)
				}
			}
		}
		if _, err := fmt.Fprintf(w, "r%02d/t%02d |%s|\n", k.rank, k.tid, string(row)); err != nil {
			return err
		}
	}
	fmt.Fprintf(w, "legend: %c function  %c MPI  %c OpenMP region (wiggle)  %c idle\n",
		glyphFunc, glyphAPI, glyphRegion, glyphIdle)
	return nil
}
