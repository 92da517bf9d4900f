package main

import (
	"crypto/sha256"
	"errors"
	"fmt"
	"hash"
	"sort"
	"time"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// The tenants workload is an open loop: sessions arrive on a schedule
// drawn from the seed, whatever the server's state, against a fixed server
// configuration. Each session is then a closed loop of control operations.
const (
	tenantJobs        = 16
	tenantProcs       = 4
	tenantMaxSessions = 128
	tenantThink       = 50 * des.Millisecond
	tenantOpPairs     = 2
	tenantAbusePct    = 2
	// A rung meets its latency limits when admission p99 and control-op
	// p99 stay within these; max_rate_sps is the last rung that does.
	admitLimit = 1 * des.Second
	ctlLimit   = 2 * des.Second
	// spanEvery samples sessions for virtual spans in traced runs.
	spanEvery = 50
)

var tenantQuota = serve.Quota{MaxProbes: 4}

// tenantExact maps the tenants workload's exact latency metrics to the
// rung and percentile they read.
var tenantExact = []struct {
	name      string
	rate, pct int
}{
	{"ctl_p99_s.r10", 10, 99},
	{"ctl_p50_s.r30", 30, 50},
	{"ctl_p99_s.r30", 30, 99},
	{"ctl_p99_s.r1000", 1000, 99},
}

// rung is one offered rate's generated input.
type rung struct {
	rate   int
	due    []des.Time // arrival times, ascending
	abuser []bool
}

type tenantsWL struct {
	seed  uint64
	mach  *machine.Config
	rungs []rung
}

func newTenants(cfg config) (workload, error) {
	rates := []int{10, 20, 30, 40, 60, 100, 1000}
	window := 10 * des.Second
	if cfg.quick {
		rates = []int{10, 40}
		window = 2 * des.Second
	}
	rng := des.NewRNG(cfg.seed)
	w := &tenantsWL{seed: cfg.seed, mach: machine.MustNew("ibm-power3")}
	for _, rate := range rates {
		w.rungs = append(w.rungs, genRung(rng.Fork(), rate, window))
	}
	return w, nil
}

// genRung draws rate×window arrival times uniformly over the window and
// sorts them: a Poisson process conditioned on its count, so every seed
// offers the same load. 2% of the sessions, at seeded positions, abuse
// their probe quota.
func genRung(rng *des.RNG, rate int, window des.Time) rung {
	n := int(int64(rate) * int64(window) / int64(des.Second))
	r := rung{rate: rate, due: make([]des.Time, n), abuser: make([]bool, n)}
	for i := range r.due {
		r.due[i] = des.Time(rng.Float64() * float64(window))
	}
	sort.Slice(r.due, func(a, b int) bool { return r.due[a] < r.due[b] })
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	abusers := n * tenantAbusePct / 100
	if abusers < 1 {
		abusers = 1
	}
	for k := 0; k < abusers; k++ {
		j := k + rng.Intn(n-k)
		idx[k], idx[j] = idx[j], idx[k]
		r.abuser[idx[k]] = true
	}
	return r
}

// rungOut is what one rung's simulation produced.
type rungOut struct {
	admit    []des.Time // Open return minus due time, admitted sessions
	ins, rem []des.Time // well-behaved Insert and Remove latencies
	stats    serve.Stats
	elapsed  des.Time
	events   uint64
	runS     float64
	gate     *gateRecorder
}

func (ro *rungOut) ctl() []des.Time { return append(append([]des.Time(nil), ro.ins...), ro.rem...) }

func (w *tenantsWL) unit(tr *tracer) (*unitOut, error) {
	out := newUnitOut()
	h := sha256.New()
	var all []*rungOut
	for _, rg := range w.rungs {
		ro, err := w.runRung(rg, tr, out)
		if err != nil {
			return nil, err
		}
		all = append(all, ro)
		out.attempted += len(rg.due)
		out.events += ro.events
		digestRung(h, rg, ro)
	}
	out.sum(h)

	maxRate := 0
	for i, rg := range w.rungs {
		ro := all[i]
		if pctl(ro.admit, 99) > admitLimit.Seconds() || pctl(ro.ctl(), 99) > ctlLimit.Seconds() {
			break
		}
		maxRate = rg.rate
	}
	out.exact["max_rate_sps"] = float64(maxRate)
	for _, m := range tenantExact {
		for i, rg := range w.rungs {
			if rg.rate == m.rate {
				out.exact[m.name] = pctl(all[i].ctl(), m.pct)
			}
		}
	}

	var ins, rem, waits, costs []des.Time
	var st serve.Stats
	var runS float64
	for i, rg := range w.rungs {
		ro := all[i]
		out.layer[fmt.Sprintf("serve.admit_wait_s.p50.r%d", rg.rate)] = pctl(ro.admit, 50)
		out.layer[fmt.Sprintf("serve.admit_wait_s.p99.r%d", rg.rate)] = pctl(ro.admit, 99)
		ins = append(ins, ro.ins...)
		rem = append(rem, ro.rem...)
		st.Admitted += ro.stats.Admitted
		st.Queued += ro.stats.Queued
		st.Evicted += ro.stats.Evicted
		st.Rejected += ro.stats.Rejected
		runS += ro.runS
		if ro.gate != nil {
			waits = append(waits, ro.gate.waits...)
			costs = append(costs, ro.gate.costs...)
		}
	}
	out.layer["serve.insert_s.p50"] = pctl(ins, 50)
	out.layer["serve.insert_s.p99"] = pctl(ins, 99)
	out.layer["serve.remove_s.p50"] = pctl(rem, 50)
	out.layer["serve.remove_s.p99"] = pctl(rem, 99)
	out.layer["serve.admitted"] = float64(st.Admitted)
	out.layer["serve.queued"] = float64(st.Queued)
	out.layer["serve.evicted"] = float64(st.Evicted)
	out.layer["serve.rejected"] = float64(st.Rejected)
	out.layer["des.events"] = float64(out.events)
	out.layer["des.run_s"] = runS
	out.layer["des.events_per_s"] = float64(out.events) / runS
	if tr != nil {
		out.layer["serve.fair_wait_s.p50"] = pctl(waits, 50)
		out.layer["serve.fair_wait_s.p99"] = pctl(waits, 99)
		out.layer["dpcl.service_s.p50"] = pctl(costs, 50)
		out.layer["dpcl.service_s.p99"] = pctl(costs, 99)
		out.layer["dpcl.requests"] = float64(len(costs))
	}
	return out, nil
}

// digestRung folds every simulated outcome of a rung into h.
func digestRung(h hash.Hash, rg rung, ro *rungOut) {
	fmt.Fprintf(h, "r%d n=%d %+v elapsed=%d events=%d\n", rg.rate, len(rg.due), ro.stats, ro.elapsed, ro.events)
	for _, xs := range [][]des.Time{ro.admit, ro.ins, ro.rem} {
		fmt.Fprintln(h, xs)
	}
}

// runRung simulates one offered rate on a fresh server and checks its
// accounting: every session is admitted or rejected, every admitted one
// closes or is evicted, exactly the abusers are evicted, and every Open
// starts at its due time.
func (w *tenantsWL) runRung(rg rung, tr *tracer, out *unitOut) (*rungOut, error) {
	rid := tr.host(0, "serve", fmt.Sprintf("rung r%d", rg.rate))
	defer tr.done(rid)
	s := des.NewScheduler(w.seed)
	sv := serve.New(s, serve.Config{
		Machine:      w.mach,
		MaxSessions:  tenantMaxSessions,
		MaxQueue:     -1,
		DefaultQuota: tenantQuota,
	})
	ro := &rungOut{}
	if tr != nil {
		ro.gate = &gateRecorder{inner: sv.Fair(), tr: tr, op: make(map[string]int)}
		sv.System().SetServeGate(ro.gate)
	}
	jid := tr.host(rid, "serve", "RegisterResident")
	jobs := make([]string, tenantJobs)
	for i := range jobs {
		jobs[i] = fmt.Sprintf("job%02d", i)
		if _, err := sv.RegisterResident(jobs[i], tenantProcs, nil); err != nil {
			return nil, err
		}
	}
	tr.done(jid)
	defer func() {
		for _, name := range jobs {
			sv.Job(name).Guide().Collector().Release()
		}
	}()

	n := len(rg.due)
	evicted := make([]bool, n)
	var errs []string
	remaining := n
	for i, due := range rg.due {
		user := fmt.Sprintf("u%05d", i)
		job := jobs[i%len(jobs)]
		var sess *tracer // non-nil for sessions sampled into spans
		if i%spanEvery == 0 {
			sess = tr
		}
		s.Spawn(user, func(p *des.Proc) {
			defer func() {
				remaining--
				if remaining == 0 {
					sv.Shutdown()
				}
			}()
			p.Advance(due)
			if late := p.Now() - due; late != 0 {
				errs = append(errs, fmt.Sprintf("%s opened %v late", user, late))
			}
			sid := sess.virt(rid, "serve", "session "+user, due)
			defer func() { sess.virtDone(sid, p.Now()) }()
			call := func(name string, op func() error) error {
				id := sess.virt(sid, "serve", name, p.Now())
				if id != 0 {
					ro.gate.op[user] = id
					defer delete(ro.gate.op, user)
				}
				err := op()
				sess.virtDone(id, p.Now())
				return err
			}

			var sn *serve.Session
			err := call("Open", func() (err error) {
				sn, err = sv.Open(p, user, job, nil)
				return err
			})
			if err != nil {
				if !errors.Is(err, serve.ErrRejected) {
					errs = append(errs, fmt.Sprintf("%s open: %v", user, err))
				}
				return
			}
			ro.admit = append(ro.admit, p.Now()-due)
			hot := sn.Job().Hot()
			if rg.abuser[i] {
				// Pile up functions until the probe quota evicts us.
				for _, f := range hot {
					if call("Insert", func() error { return sn.Insert(p, f) }) != nil {
						break
					}
					p.Advance(tenantThink)
				}
			} else {
				for k := 0; k < tenantOpPairs; k++ {
					f := hot[(i+k)%len(hot)]
					t0 := p.Now()
					if err := call("Insert", func() error { return sn.Insert(p, f) }); err != nil {
						errs = append(errs, fmt.Sprintf("%s insert: %v", user, err))
						break
					}
					ro.ins = append(ro.ins, p.Now()-t0)
					p.Advance(tenantThink)
					t0 = p.Now()
					if err := call("Remove", func() error { return sn.Remove(p, f) }); err != nil {
						errs = append(errs, fmt.Sprintf("%s remove: %v", user, err))
						break
					}
					ro.rem = append(ro.rem, p.Now()-t0)
					p.Advance(tenantThink)
				}
			}
			evicted[i], _ = sn.Evicted()
			sn.Close(p)
		})
	}

	did := tr.host(rid, "des", "Scheduler.Run")
	t0 := time.Now()
	err := s.Run()
	ro.runS = time.Since(t0).Seconds()
	tr.done(did)
	if err != nil {
		return nil, fmt.Errorf("bench: tenants r%d: %w", rg.rate, err)
	}
	ro.stats = sv.Stats()
	ro.elapsed = s.Now()
	ro.events = s.Executed()

	for _, e := range errs {
		out.fail("r%d %s", rg.rate, e)
	}
	for i := range evicted {
		if evicted[i] != rg.abuser[i] {
			out.fail("r%d u%05d: abuser=%t evicted=%t", rg.rate, i, rg.abuser[i], evicted[i])
		}
	}
	st := ro.stats
	if st.Admitted+st.Rejected != n {
		out.fail("r%d: %d admitted + %d rejected != %d sessions", rg.rate, st.Admitted, st.Rejected, n)
	}
	if st.Closed+st.Evicted != st.Admitted {
		out.fail("r%d: %d closed + %d evicted != %d admitted", rg.rate, st.Closed, st.Evicted, st.Admitted)
	}
	return ro, nil
}

// gateRecorder wraps the server's fair scheduler to time each daemon
// request: the time spent in Serve minus the request's cost is the fair
// queue's wait; the cost is the daemon's service time.
type gateRecorder struct {
	inner dpcl.ServeGate
	tr    *tracer
	op    map[string]int // user -> its open control-op span (sampled sessions)
	waits []des.Time
	costs []des.Time
}

func (g *gateRecorder) Serve(p *des.Proc, node int, user, kind string, cost des.Time) {
	t0 := p.Now()
	g.inner.Serve(p, node, user, kind, cost)
	t1 := p.Now()
	g.waits = append(g.waits, t1-t0-cost)
	g.costs = append(g.costs, cost)
	if parent := g.op[user]; parent != 0 {
		g.tr.virtDone(g.tr.virt(parent, "serve", "fair wait", t0), t1-cost)
		g.tr.virtDone(g.tr.virt(parent, "dpcl", kind, t1-cost), t1)
	}
}
