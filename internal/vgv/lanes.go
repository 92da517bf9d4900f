package vgv

import "dynprof/internal/vt"

// This file holds the dense tables Analyze and RenderTimeline key their
// per-event state on: lanes, per-rank function ids, message peers and call
// edges. An id the trace's size can pay for indexes a slice; only an id
// outside that bound — negative, or so large that a slice up to it would
// outgrow the trace — falls back to a map, so a crafted trace with ids near
// ±2³¹ cannot force a large allocation.

// cellBudget is the number of dense slots one analysis may allocate across
// all its tables: a few per event, plus room for a small trace's tables.
func cellBudget(events int) int { return 4*events + 4096 }

// idTable maps int32 ids to non-negative int32 values. Ids in
// [0, len(dense)) live in the slice; the rest live in the map. An id the
// map holds stays outside the slice: the budget that could not pay to
// extend the slice to it then can only have shrunk since.
type idTable struct {
	dense  []int32 // value+1 per id; 0 marks an absent id
	sparse map[int32]int32
}

// get returns id's value.
func (t *idTable) get(id int32) (int32, bool) {
	if uint32(id) < uint32(len(t.dense)) {
		v := t.dense[id]
		return v - 1, v != 0
	}
	v, ok := t.sparse[id]
	return v, ok
}

// put sets the value of an id get reported absent. An id beyond the slice
// grows it, doubling where the budget allows, when *budget still pays for
// the new slots, and lands in the map otherwise.
func (t *idTable) put(id, v int32, budget *int) {
	if old := len(t.dense); id >= 0 && int(id) >= old {
		n := max(int(id)+1, 2*old, 8)
		if n-old > *budget {
			n = int(id) + 1
		}
		if n-old <= *budget {
			*budget -= n - old
			t.dense = append(t.dense, make([]int32, n-old)...)
		}
	}
	if uint32(id) < uint32(len(t.dense)) {
		t.dense[id] = v + 1
		return
	}
	if t.sparse == nil {
		t.sparse = make(map[int32]int32)
	}
	t.sparse[id] = v
}

// laneKey identifies one execution lane (process bar in the display).
type laneKey struct {
	rank int32
	tid  int32
}

// laneTable holds per-lane state L and per-rank state R, numbering ranks
// and lanes in order of first sight.
type laneTable[L, R any] struct {
	budget  int
	rankIDs idTable // rank -> rank index
	ranks   []laneRank[R]
	lanes   []L
	keys    []laneKey // per lane index

	// The last lane returned, so a run of events on one lane costs one
	// comparison. The pointers stay valid: the slices they point into
	// grow only when a new lane, which replaces them, is added.
	last     laneKey
	lastLane *L // nil before the first event
	lastRank *R
}

// laneRank is one rank's entry in a laneTable: its lanes and its state.
type laneRank[R any] struct {
	tids  idTable // tid -> lane index
	state R
}

func newLaneTable[L, R any](events int) *laneTable[L, R] {
	return &laneTable[L, R]{budget: cellBudget(events)}
}

// get returns the state of e's lane and of its rank, creating them on the
// lane's first event.
func (t *laneTable[L, R]) get(e *vt.Event) (*L, *R) {
	if t.lastLane != nil && t.last.rank == e.Rank && t.last.tid == e.TID {
		return t.lastLane, t.lastRank
	}
	r, ok := t.rankIDs.get(e.Rank)
	if !ok {
		r = int32(len(t.ranks))
		t.rankIDs.put(e.Rank, r, &t.budget)
		t.ranks = append(t.ranks, laneRank[R]{})
	}
	rank := &t.ranks[r]
	l, ok := rank.tids.get(e.TID)
	if !ok {
		l = int32(len(t.lanes))
		rank.tids.put(e.TID, l, &t.budget)
		var zero L
		t.lanes = append(t.lanes, zero)
		t.keys = append(t.keys, laneKey{rank: e.Rank, tid: e.TID})
	}
	t.last = laneKey{rank: e.Rank, tid: e.TID}
	t.lastLane, t.lastRank = &t.lanes[l], &rank.state
	return t.lastLane, t.lastRank
}
