package dpcl

// Probe-ledger reconciliation: the client records its desired probe state
// (which probes are installed, which are active) as it issues requests,
// and replays that ledger against any daemon that crashed and restarted.
// Replay is idempotent end to end: install replays reuse each entry's
// stable per-target idempotency token (so a replay can never double-patch
// a daemon that already executed the original), and activation replays
// are no-ops on probes already in the desired state. A replay against a
// perfectly healthy daemon therefore leaves target images byte-identical.

import (
	"fmt"
	"sort"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/image"
	"dynprof/internal/proc"
)

// GiveUpError reports a control transaction abandoned after the full
// retransmit budget: the target's daemon never acknowledged within
// Attempts exponentially backed-off tries. Callers that staged state
// under the transaction (probe installs) roll it back on this error.
type GiveUpError struct {
	// Kind is the request class ("install", "toggle", "suspend", ...).
	Kind string
	// Target names the process whose daemon went silent.
	Target string
	// Attempts is the exhausted retry budget.
	Attempts int
}

func (e *GiveUpError) Error() string {
	return fmt.Sprintf("dpcl: %s request to %s timed out after %d attempts", e.Kind, e.Target, e.Attempts)
}

// ledgerEntry is the desired state of one Probe: where it should be
// installed and whether it should be active. Entries are desired-state
// first — Activate/Deactivate/Remove update the ledger before issuing
// requests — so a replay racing an in-flight operation converges on the
// client's latest intent.
type ledgerEntry struct {
	probe  *Probe
	mk     func(pr *proc.Process) image.Snippet
	procs  []*proc.Process
	tokens map[*proc.Process]uint64
	active bool
}

// addLedger records a probe's desired installation, assigning each target
// its stable install token.
func (cl *Client) addLedger(probe *Probe, mk func(pr *proc.Process) image.Snippet,
	procs []*proc.Process) *ledgerEntry {
	e := &ledgerEntry{
		probe:  probe,
		mk:     mk,
		procs:  append([]*proc.Process(nil), procs...),
		tokens: make(map[*proc.Process]uint64, len(procs)),
	}
	for _, pr := range e.procs {
		cl.nextToken++
		e.tokens[pr] = cl.nextToken
	}
	cl.ledger = append(cl.ledger, e)
	if cl.byProbe == nil {
		cl.byProbe = make(map[*Probe]*ledgerEntry)
	}
	cl.byProbe[probe] = e
	return e
}

// dropLedger forgets a probe's desired state (Remove, or install rollback).
func (cl *Client) dropLedger(probe *Probe) {
	e, ok := cl.byProbe[probe]
	if !ok {
		return
	}
	delete(cl.byProbe, probe)
	for i, le := range cl.ledger {
		if le == e {
			cl.ledger = append(cl.ledger[:i], cl.ledger[i+1:]...)
			break
		}
	}
}

// installReq builds the (re)installation request for one target of one
// ledger entry, carrying the entry's stable idempotency token. The action
// re-resolves everything at daemon-execution time, applies the entry's
// desired activation, and registers the fresh handle in both the probe's
// handle map and the daemon's own teardown tracking (via req.installed).
// errs, when non-nil, collects daemon-side failures (original installs
// report them; replays have nowhere to report and pass nil).
func (cl *Client) installReq(e *ledgerEntry, pr *proc.Process, errs *[]error) *request {
	probe := e.probe
	req := cl.sys.newRequest(kindInstall, installTime)
	req.token = e.tokens[pr]
	req.run = func(dp *des.Proc) {
		img := pr.Image()
		s, ok := img.Lookup(probe.Sym)
		if !ok {
			if errs != nil {
				*errs = append(*errs, fmt.Errorf("dpcl: %s: no symbol %q", pr.Name(), probe.Sym))
			}
			return
		}
		id := img.BindSnippet(e.mk(pr))
		h, err := img.InsertProbe(s, probe.Kind, probe.Exit, id)
		if err != nil {
			if errs != nil {
				*errs = append(*errs, fmt.Errorf("dpcl: %s: %w", pr.Name(), err))
			}
			return
		}
		if e.active {
			h.SetActive(true)
		}
		probe.hands[pr] = h
		req.installed = h
	}
	return req
}

// rollbackInstall removes whatever subset of a failed install actually
// landed, so a gave-up transaction can never leave a probe half-installed.
// The removes are acknowledged and re-issued for up to a few full retry
// budgets (one budget can be swallowed whole by the same loss that failed
// the install), but their errors are swallowed: this is best-effort repair
// on an already-failing control path. FIFO delivery guarantees each remove
// arrives after any still-in-flight retransmit of the install it undoes.
func (cl *Client) rollbackInstall(p *des.Proc, probe *Probe) {
	targets := probe.targets(nil)
	for round := 0; round < 4; round++ {
		var pending []*request
		for _, pr := range targets {
			if h := probe.hands[pr]; h == nil || h.Removed() {
				continue
			}
			req := cl.sys.newRequest(kindRemove, removeTime)
			req.probe = probe
			cl.post(p, pr, req, true)
			pending = append(pending, req)
		}
		if len(pending) == 0 {
			break
		}
		cl.collectRound(p, pending, maxFenceRounds) // no reconcile recursion on the error path
		for _, req := range pending {
			cl.sys.recycle(req)
		}
	}
	probe.hands = make(map[*proc.Process]*image.ProbeHandle)
}

// noteStale marks a target's node for reconciliation (its daemon fenced a
// request with an incarnation mismatch).
func (cl *Client) noteStale(pr *proc.Process) {
	if cl.stale == nil {
		cl.stale = make(map[int]bool)
	}
	cl.stale[cl.nodes[pr]] = true
}

// noteRestart rebinds the client to a restarted daemon and marks the node
// stale. Called by the system when the super daemon respawns a comm
// daemon; fires the client's restart notifier (see SetRestartNotify).
func (cl *Client) noteRestart(node int, nd *commDaemon) {
	if _, attached := cl.byNode[node]; !attached {
		return
	}
	cl.byNode[node] = nd
	if cl.stale == nil {
		cl.stale = make(map[int]bool)
	}
	cl.stale[node] = true
	if cl.onRestart != nil {
		cl.onRestart(node)
	}
}

// SetRestartNotify installs fn, called (from scheduler event context) each
// time a daemon serving this client restarts with a new incarnation.
// Tools typically spawn a repair process that calls Reconcile.
func (cl *Client) SetRestartNotify(fn func(node int)) { cl.onRestart = fn }

// Replays reports how many per-node ledger replays this client has run.
func (cl *Client) Replays() int { return cl.replays }

// maxReconcileRounds bounds Reconcile's outer loop: each extra round
// requires a fresh crash to land during the previous round's replay.
const maxReconcileRounds = 8

// Reconcile replays the probe ledger against every node marked stale,
// repeating while replays themselves surface new staleness (a daemon
// crashing mid-replay). Returns the number of per-target probe replays
// performed. Reentrant calls (a replay's own acks reporting staleness)
// are no-ops; the outer loop picks the new staleness up.
func (cl *Client) Reconcile(p *des.Proc) (int, error) {
	if cl.reconciling || len(cl.stale) == 0 {
		return 0, nil
	}
	cl.reconciling = true
	defer func() { cl.reconciling = false }()
	total := 0
	for round := 0; ; round++ {
		if len(cl.stale) == 0 {
			return total, nil
		}
		if round >= maxReconcileRounds {
			return total, fmt.Errorf("dpcl: nodes still stale after %d reconcile rounds", round)
		}
		nodes := make([]int, 0, len(cl.stale))
		for n := range cl.stale {
			nodes = append(nodes, n)
		}
		sort.Ints(nodes)
		cl.stale = nil
		for _, node := range nodes {
			n, err := cl.replayNode(p, node)
			total += n
			if err != nil {
				return total, err
			}
		}
	}
}

// replayNode suspends the node's targets, re-posts every ledger entry's
// installs (stable tokens) and desired activation, and resumes. The
// suspend window mirrors the original install path: probe state never
// changes under a running target. Against a healthy daemon a replay is a
// strict no-op on target images: install replays dedup on their original
// tokens and activation replays find probes already in the desired state.
func (cl *Client) replayNode(p *des.Proc, node int) (int, error) {
	if _, attached := cl.byNode[node]; !attached {
		// The client disconnected (evicted or quit) between the restart
		// notification and this replay running; nothing left to reconverge.
		return 0, nil
	}
	var targets []*proc.Process
	for _, pr := range cl.procs {
		if cl.nodes[pr] == node {
			targets = append(targets, pr)
		}
	}
	if len(targets) == 0 || len(cl.ledger) == 0 {
		return 0, nil
	}
	cl.replays++
	cl.sys.inj.Record(p.Now(), fault.KindLedgerReplay, node, -1,
		fmt.Sprintf("%s replaying %d probes", cl.user, len(cl.ledger)))
	if err := cl.Suspend(p, targets, true); err != nil {
		return 0, err
	}
	replayed := 0
	var firstErr error
	for _, e := range cl.ledger {
		n, err := cl.replayEntry(p, e, node)
		replayed += n
		if err != nil && firstErr == nil {
			firstErr = err
		}
	}
	cl.Resume(p, targets)
	return replayed, firstErr
}

// replayEntry re-posts one ledger entry's install (stable token, applies
// desired activation on a fresh install) plus a guarded activation toggle
// (fresh token, no-op when the probe is already in the desired state) for
// each of the entry's targets on the node.
func (cl *Client) replayEntry(p *des.Proc, e *ledgerEntry, node int) (int, error) {
	var pending []*request
	count := 0
	for _, pr := range e.procs {
		if cl.nodes[pr] != node {
			continue
		}
		count++
		req := cl.installReq(e, pr, nil)
		cl.post(p, pr, req, true)
		pending = append(pending, req)

		treq := cl.sys.newRequest(kindToggle, toggleTime)
		treq.probe, treq.active = e.probe, e.active
		cl.post(p, pr, treq, true)
		pending = append(pending, treq)
	}
	if count == 0 {
		return 0, nil
	}
	return count, cl.collect(p, pending)
}
