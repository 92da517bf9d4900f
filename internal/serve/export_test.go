package serve

// ProtoBacklog is the number of replies a connection may owe its client
// before the bridge stops reading its commands.
const ProtoBacklog = protoBacklog

// LaneEntries reports, for node's lane, the number of requests queued by
// each user holding an entry, and the number of slots in the rotation
// (entries plus drained slots not yet retired).
func (f *FairSched) LaneEntries(node int) (queued map[string]int, slots int) {
	queued = make(map[string]int)
	ln := f.lanes[node]
	if ln == nil {
		return queued, 0
	}
	for user, uq := range ln.q {
		queued[user] = len(uq.gates)
	}
	return queued, len(ln.rr)
}
