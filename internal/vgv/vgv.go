// Package vgv is the postmortem analysis side of the toolset: the
// stand-in for the Vampir/GuideView GUI. It reads a trace produced by the
// instrumentation library and computes per-function profiles (call counts,
// inclusive/exclusive times), message statistics, and an ASCII time-line
// display in which MPI processes and OpenMP threads appear as horizontal
// bars with "a wiggle glyph superimposed ... to represent OpenMP parallel
// regions" (Figure 4).
package vgv

import (
	"cmp"
	"fmt"
	"io"
	"slices"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/par"
	"dynprof/internal/vt"
)

// FuncStat is one function's aggregate profile.
type FuncStat struct {
	Name      string
	Calls     int64
	Inclusive des.Time
	Exclusive des.Time
}

// MsgStat aggregates point-to-point traffic.
type MsgStat struct {
	Sends int
	Recvs int
	Bytes int64
}

// CommEdge is one directed sender→receiver traffic aggregate.
type CommEdge struct {
	From, To int32
	Msgs     int
	Bytes    int64
}

// CallEdge is one caller→callee aggregate of the dynamic call graph.
// Callers outside any instrumented function appear as "(root)".
type CallEdge struct {
	Caller string
	Callee string
	Calls  int64
	Time   des.Time // callee inclusive time under this caller
}

// Profile is the postmortem analysis of one trace.
type Profile struct {
	Funcs []FuncStat // sorted by exclusive time, descending
	Msgs  MsgStat
	// Start and End bound the trace.
	Start, End des.Time
	// Ranks and Threads count the distinct lanes seen.
	Ranks   int
	Threads int
	// Unbalanced counts enter/exit events that could not be paired —
	// expected when instrumentation was inserted or removed mid-run.
	Unbalanced int
	// Comm is the communication matrix: per sender→receiver traffic,
	// sorted by bytes descending (Vampir's message-statistics view).
	Comm []CommEdge
	// CallGraph is the dynamic call graph observed in the trace, sorted
	// by edge time descending (the calling-sequence report of the
	// paper's introduction).
	CallGraph []CallEdge
}

// rootFn is the interned index of "(root)", the caller of every call made
// outside an instrumented function.
const rootFn = 0

// frame is one open function invocation on a lane's call stack; fn is the
// function's interned name.
type frame struct {
	fn      int32
	enterAt des.Time
	child   des.Time
}

// stackLane is one lane's analysis state: its call stack.
type stackLane struct {
	stack []frame
}

// rankState is one rank's analysis state: its function id -> interned
// name table and its message peer -> index into analyzer.comm table.
type rankState struct {
	fns   idTable
	peers idTable
}

// analyzer is one Analyze worker's state: the lanes it owns (laneOwner)
// and their aggregates. Function names are interned once per (rank, id),
// so stacks, aggregates and call edges key on ints; ids that resolve to
// the same name share one index, as the name-keyed profile requires.
type analyzer struct {
	col        *vt.Collector
	lanes      *laneTable[stackLane, rankState]
	byName     map[string]int32
	stats      []FuncStat // by interned name; Calls > 0 marks a profiled function
	callers    []idTable  // by interned callee: interned caller -> index into edges
	edges      []CallEdge
	comm       []CommEdge
	msgs       MsgStat
	unbalanced int
}

// intern returns name's index, adding it on first sight.
func (a *analyzer) intern(name string) int32 {
	if fn, ok := a.byName[name]; ok {
		return fn
	}
	fn := int32(len(a.stats))
	a.byName[name] = fn
	a.stats = append(a.stats, FuncStat{Name: name})
	a.callers = append(a.callers, idTable{})
	return fn
}

// fn resolves e's function id, in the table rs of e's rank, to its
// interned name.
func (a *analyzer) fn(rs *rankState, e *vt.Event) int32 {
	if fn, ok := rs.fns.get(e.ID); ok {
		return fn
	}
	fn := a.intern(a.col.FuncName(e.Rank, e.ID))
	rs.fns.put(e.ID, fn, &a.lanes.budget)
	return fn
}

// closeFrame charges f, just popped off ls's stack, and its call edge.
func (a *analyzer) closeFrame(ls *stackLane, f frame, at des.Time) {
	inc := at - f.enterAt
	if inc < 0 {
		inc = 0
	}
	st := &a.stats[f.fn]
	st.Calls++
	st.Inclusive += inc
	st.Exclusive += inc - f.child
	caller := int32(rootFn)
	if s := ls.stack; len(s) > 0 {
		s[len(s)-1].child += inc
		caller = s[len(s)-1].fn
	}
	i, ok := a.callers[f.fn].get(caller)
	if !ok {
		i = int32(len(a.edges))
		a.callers[f.fn].put(caller, i, &a.lanes.budget)
		a.edges = append(a.edges, CallEdge{Caller: a.stats[caller].Name, Callee: a.stats[f.fn].Name})
	}
	a.edges[i].Calls++
	a.edges[i].Time += inc
}

// send charges one message of e's rank, whose state is rs, to its
// communication edge.
func (a *analyzer) send(rs *rankState, e *vt.Event) {
	to := int32(e.A)
	i, ok := rs.peers.get(to)
	if !ok {
		i = int32(len(a.comm))
		rs.peers.put(to, i, &a.lanes.budget)
		a.comm = append(a.comm, CommEdge{From: e.Rank, To: to})
	}
	a.comm[i].Msgs++
	a.comm[i].Bytes += e.B
}

// Analyze computes the profile of a collected trace. The lanes are
// partitioned across par.Workers() workers (laneOwner), each scanning the
// ordered view for its own lanes' events; their per-name stats, call edges
// and communication edges are then folded by key and put in the total
// orders below, so the profile is the same on any number of workers.
func Analyze(col *vt.Collector) *Profile {
	view := col.Ordered()
	p := &Profile{}
	p.Start, p.End = view.Span()
	as := make([]*analyzer, par.Workers())
	par.For(len(as), len(as), func(w int) {
		a := &analyzer{
			col:    col,
			lanes:  newLaneTable[stackLane, rankState](view.Len()),
			byName: make(map[string]int32),
		}
		a.intern("(root)")
		a.scan(view, w, len(as), p.End)
		as[w] = a
	})

	var ranks []int32
	for _, a := range as {
		p.Msgs.Sends += a.msgs.Sends
		p.Msgs.Recvs += a.msgs.Recvs
		p.Msgs.Bytes += a.msgs.Bytes
		p.Unbalanced += a.unbalanced
		for _, st := range a.stats {
			if st.Calls > 0 {
				p.Funcs = append(p.Funcs, st)
			}
		}
		p.CallGraph = append(p.CallGraph, a.edges...)
		p.Comm = append(p.Comm, a.comm...)
		for _, k := range a.lanes.keys {
			ranks = append(ranks, k.rank)
		}
		p.Threads += len(a.lanes.keys)
	}
	// Workers share names, call edges, communication edges and ranks, but
	// never a lane: fold each by its key.
	p.Funcs = fold(p.Funcs, func(a, b FuncStat) int { return cmp.Compare(a.Name, b.Name) },
		func(dst *FuncStat, src FuncStat) {
			dst.Calls += src.Calls
			dst.Inclusive += src.Inclusive
			dst.Exclusive += src.Exclusive
		})
	p.CallGraph = fold(p.CallGraph, func(a, b CallEdge) int {
		return cmp.Or(cmp.Compare(a.Caller, b.Caller), cmp.Compare(a.Callee, b.Callee))
	}, func(dst *CallEdge, src CallEdge) {
		dst.Calls += src.Calls
		dst.Time += src.Time
	})
	p.Comm = fold(p.Comm, func(a, b CommEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	}, func(dst *CommEdge, src CommEdge) {
		dst.Msgs += src.Msgs
		dst.Bytes += src.Bytes
	})
	p.Ranks = len(fold(ranks, cmp.Compare[int32], func(*int32, int32) {}))

	sort.Slice(p.Funcs, func(i, j int) bool {
		if p.Funcs[i].Exclusive != p.Funcs[j].Exclusive {
			return p.Funcs[i].Exclusive > p.Funcs[j].Exclusive
		}
		return p.Funcs[i].Name < p.Funcs[j].Name
	})
	sort.Slice(p.CallGraph, func(i, j int) bool {
		if p.CallGraph[i].Time != p.CallGraph[j].Time {
			return p.CallGraph[i].Time > p.CallGraph[j].Time
		}
		if p.CallGraph[i].Caller != p.CallGraph[j].Caller {
			return p.CallGraph[i].Caller < p.CallGraph[j].Caller
		}
		return p.CallGraph[i].Callee < p.CallGraph[j].Callee
	})
	sort.Slice(p.Comm, func(i, j int) bool {
		if p.Comm[i].Bytes != p.Comm[j].Bytes {
			return p.Comm[i].Bytes > p.Comm[j].Bytes
		}
		if p.Comm[i].From != p.Comm[j].From {
			return p.Comm[i].From < p.Comm[j].From
		}
		return p.Comm[i].To < p.Comm[j].To
	})
	return p
}

// fold sorts xs by key and merges each run of elements with equal keys
// into its first with add, returning the merged prefix of xs.
func fold[T any](xs []T, key func(a, b T) int, add func(dst *T, src T)) []T {
	slices.SortFunc(xs, key)
	out := xs[:0]
	for _, x := range xs {
		if n := len(out); n > 0 && key(out[n-1], x) == 0 {
			add(&out[n-1], x)
			continue
		}
		out = append(out, x)
	}
	return out
}

// scan runs worker w of parts over the view: it analyses the events of
// the lanes it owns, then closes the frames they leave open at end, the
// trace's last time.
func (a *analyzer) scan(view vt.View, w, parts int, end des.Time) {
	for _, events := range view.Chunks() {
		for i := range events {
			e := &events[i]
			if laneOwner(e, parts) != w {
				continue
			}
			ls, rs := a.lanes.get(e)
			switch e.Kind {
			case vt.Enter, vt.APIEnter:
				ls.stack = append(ls.stack, frame{fn: a.fn(rs, e), enterAt: e.At})
			case vt.Exit, vt.APIExit:
				s := ls.stack
				if len(s) == 0 || s[len(s)-1].fn != a.fn(rs, e) {
					// Orphan exit: instrumentation appeared mid-call, or the
					// matching enter predates the probe's insertion.
					a.unbalanced++
					continue
				}
				f := s[len(s)-1]
				ls.stack = s[:len(s)-1]
				a.closeFrame(ls, f, e.At)
			case vt.MsgSend:
				a.msgs.Sends++
				a.msgs.Bytes += e.B
				a.send(rs, e)
			case vt.MsgRecv:
				a.msgs.Recvs++
			}
		}
	}
	// Close frames left open at trace end (probe removed before exit, or
	// the program ended inside the function). Lanes are independent and
	// the aggregates are sums, so lane order does not matter.
	for l := range a.lanes.lanes {
		ls := &a.lanes.lanes[l]
		for s := ls.stack; len(s) > 0; s = ls.stack {
			a.unbalanced++
			ls.stack = s[:len(s)-1]
			a.closeFrame(ls, s[len(s)-1], end)
		}
	}
}

// WriteCallGraph renders the dynamic call graph, heaviest edges first
// (n <= 0 means all edges).
func (p *Profile) WriteCallGraph(w io.Writer, n int) error {
	if n <= 0 || n > len(p.CallGraph) {
		n = len(p.CallGraph)
	}
	ew := &errWriter{w: w}
	ew.printf("%-28s %-28s %10s %14s\n", "caller", "callee", "calls", "time(ms)")
	for _, e := range p.CallGraph[:n] {
		ew.printf("%-28s %-28s %10d %14.3f\n", e.Caller, e.Callee, e.Calls, e.Time.Milliseconds())
	}
	return ew.err
}

// WriteCommMatrix renders the communication matrix, heaviest edges first
// (n <= 0 means all edges).
func (p *Profile) WriteCommMatrix(w io.Writer, n int) error {
	if n <= 0 || n > len(p.Comm) {
		n = len(p.Comm)
	}
	ew := &errWriter{w: w}
	ew.printf("%-6s %-6s %10s %14s\n", "from", "to", "msgs", "bytes")
	for _, e := range p.Comm[:n] {
		ew.printf("r%-5d r%-5d %10d %14d\n", e.From, e.To, e.Msgs, e.Bytes)
	}
	return ew.err
}

// errWriter formats onto w until the first write error, which it keeps,
// so a renderer checks once at the end.
type errWriter struct {
	w   io.Writer
	err error
}

func (ew *errWriter) printf(format string, args ...any) {
	if ew.err == nil {
		_, ew.err = fmt.Fprintf(ew.w, format, args...)
	}
}

// Lookup finds a function's profile entry.
func (p *Profile) Lookup(name string) (FuncStat, bool) {
	for _, f := range p.Funcs {
		if f.Name == name {
			return f, true
		}
	}
	return FuncStat{}, false
}

// WriteReport renders the profile as a text table (top n functions by
// exclusive time; n <= 0 means all).
func (p *Profile) WriteReport(w io.Writer, n int) error {
	if n <= 0 || n > len(p.Funcs) {
		n = len(p.Funcs)
	}
	ew := &errWriter{w: w}
	ew.printf("span %v..%v  lanes %d  msgs %d/%d (%d bytes)  unbalanced %d\n",
		p.Start, p.End, p.Threads, p.Msgs.Sends, p.Msgs.Recvs, p.Msgs.Bytes, p.Unbalanced)
	ew.printf("%-32s %10s %14s %14s\n", "function", "calls", "incl(ms)", "excl(ms)")
	for _, f := range p.Funcs[:n] {
		ew.printf("%-32s %10d %14.3f %14.3f\n",
			f.Name, f.Calls, f.Inclusive.Milliseconds(), f.Exclusive.Milliseconds())
	}
	return ew.err
}
