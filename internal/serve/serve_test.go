package serve_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/fault"
	"dynprof/internal/machine"
	"dynprof/internal/serve"
)

// TestFairSchedWeightedRoundRobin pins the round-robin service order on
// one contended lane: every user has weight 1, so users take one request
// per turn, and within a user requests stay FIFO. A user whose queue
// drains loses its lane entry at once; if it re-enters before the
// rotation reaches its old slot it is served from that slot, otherwise it
// joins at the back. Each request costs 1ms, so a completion time names
// its position in the order. The case keeps the name it had when users b
// and c weighed 2 and 3; its batches are chosen for unit weights.
func TestFairSchedWeightedRoundRobin(t *testing.T) {
	type batch struct {
		user string
		n    int
		at   des.Time
	}
	t.Run("weights 1, 2 and 3 with a re-entering user", func(t *testing.T) {
		// a's first request grabs the idle lane; everything else queues. d
		// drains when its first request starts (4ms) and re-enters at 5.5ms,
		// while its drained slot still sits ahead of a's. So d is served from
		// that slot (from 8ms) before a's next turn; joining at the back
		// instead would have served a first.
		batches := []batch{{"a", 4, 0}, {"b", 3, 0}, {"c", 3, 0}, {"d", 1, 0},
			{"d", 1, 5*des.Millisecond + des.Millisecond/2}}
		const want = "a a b c d a b c d a b c"
		s := des.NewScheduler(1)
		f := serve.NewFairSched()
		var order []string
		submitted := make(map[string]int)
		for _, b := range batches {
			submitted[b.user] += b.n
			for i := 0; i < b.n; i++ {
				s.Spawn(fmt.Sprintf("%s%d", b.user, i), func(p *des.Proc) {
					p.Advance(b.at)
					f.Serve(p, 0, b.user, "install", des.Millisecond)
					order = append(order, b.user)
					queued, _ := f.LaneEntries(0)
					for u, n := range queued {
						if n == 0 {
							t.Errorf("at %v the lane holds an entry for %s with nothing queued", p.Now(), u)
						}
					}
				})
			}
		}
		if err := s.Run(); err != nil {
			t.Fatal(err)
		}
		if got := strings.Join(order, " "); got != want {
			t.Fatalf("service order:\n got %s\nwant %s", got, want)
		}
		for _, u := range order {
			submitted[u]--
		}
		for u, n := range submitted {
			if n != 0 {
				t.Errorf("%s: %d requests submitted but not served", u, n)
			}
		}
		if queued, slots := f.LaneEntries(0); len(queued) != 0 || slots != 0 {
			t.Errorf("idle lane holds entries %v and %d rotation slots", queued, slots)
		}
	})
}

// newTestServer builds a server with one 4-rank resident job; done is
// called by each tenant proc on completion and shuts the server down after
// the last one.
func newTestServer(t *testing.T, seed uint64, cfg serve.Config, tenants int) (*des.Scheduler, *serve.Server, func()) {
	t.Helper()
	if cfg.Machine == nil {
		cfg.Machine = machine.MustNew("ibm-power3")
	}
	s := des.NewScheduler(seed)
	sv := serve.New(s, cfg)
	if _, err := sv.RegisterResident("smg", 4, nil); err != nil {
		t.Fatal(err)
	}
	remaining := tenants
	done := func() {
		remaining--
		if remaining == 0 {
			sv.Shutdown()
		}
	}
	return s, sv, done
}

// TestAdmissionRejects checks MaxQueue=0: sessions past the limit fail
// immediately with ErrRejected.
func TestAdmissionRejects(t *testing.T) {
	s, sv, done := newTestServer(t, 7, serve.Config{MaxSessions: 2, MaxQueue: 0}, 3)
	hot := "smg_solve"
	var rejected int
	for i := 0; i < 3; i++ {
		user := fmt.Sprintf("u%d", i)
		s.Spawn(user, func(p *des.Proc) {
			defer done()
			p.Advance(des.Time(i) * des.Millisecond) // deterministic arrival order
			sn, err := sv.Open(p, user, "smg", nil)
			if errors.Is(err, serve.ErrRejected) {
				rejected++
				return
			}
			if err != nil {
				t.Errorf("%s: %v", user, err)
				return
			}
			if err := sn.Insert(p, hot); err != nil {
				t.Errorf("%s insert: %v", user, err)
			}
			p.Advance(des.Second)
			sn.Close(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if rejected != 1 {
		t.Errorf("rejected = %d, want 1", rejected)
	}
	st := sv.Stats()
	if st.Admitted != 2 || st.Rejected != 1 || st.Closed != 2 {
		t.Errorf("stats = %+v", st)
	}
}

// TestAdmissionQueues checks MaxQueue<0: a session past the limit waits
// and is admitted when a slot frees, FIFO.
func TestAdmissionQueues(t *testing.T) {
	s, sv, done := newTestServer(t, 7, serve.Config{MaxSessions: 1, MaxQueue: -1}, 2)
	var admitOrder []string
	for i := 0; i < 2; i++ {
		user := fmt.Sprintf("u%d", i)
		s.Spawn(user, func(p *des.Proc) {
			defer done()
			p.Advance(des.Time(i) * des.Millisecond)
			sn, err := sv.Open(p, user, "smg", nil)
			if err != nil {
				t.Errorf("%s: %v", user, err)
				return
			}
			admitOrder = append(admitOrder, user)
			if err := sn.Insert(p, "smg_relax"); err != nil {
				t.Errorf("%s insert: %v", user, err)
			}
			sn.Close(p)
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := strings.Join(admitOrder, " "); got != "u0 u1" {
		t.Errorf("admit order %q, want \"u0 u1\"", got)
	}
	st := sv.Stats()
	if st.Admitted != 2 || st.Queued != 1 || st.Rejected != 0 {
		t.Errorf("stats = %+v", st)
	}
}

// TestProbeQuotaEviction: exceeding MaxProbes evicts the session, its
// probes are removed, its daemons are torn down, and a neighbour session
// is untouched.
func TestProbeQuotaEviction(t *testing.T) {
	s, sv, done := newTestServer(t, 11, serve.Config{
		DefaultQuota: serve.Quota{MaxProbes: 4},
	}, 2)
	var abuser, good *serve.Session
	s.Spawn("abuser", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		sn, err := sv.Open(p, "abuser", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		abuser = sn
		if err := sn.Insert(p, "smg_solve"); err != nil { // 2 probes: fine
			t.Errorf("first insert: %v", err)
		}
		if err := sn.Insert(p, "smg_relax"); err != nil { // 4 probes: at limit
			t.Errorf("second insert: %v", err)
		}
		if err := sn.Insert(p, "smg_exchange"); err == nil { // 6 > 4: evicted
			t.Error("third insert succeeded past the probe quota")
		}
		if err := sn.Insert(p, "smg_residual"); !errors.Is(err, serve.ErrEvicted) {
			t.Errorf("op after eviction = %v, want ErrEvicted", err)
		}
	})
	s.Spawn("good", func(p *des.Proc) {
		defer done()
		p.Advance(2 * des.Millisecond)
		sn, err := sv.Open(p, "good", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		good = sn
		if err := sn.Insert(p, "smg_solve"); err != nil {
			t.Errorf("good insert: %v", err)
		}
		p.Advance(2 * des.Second)
		if err := sn.Remove(p, "smg_solve"); err != nil {
			t.Errorf("good remove: %v", err)
		}
		sn.Close(p)
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev, reason := abuser.Evicted(); !ev || !strings.Contains(reason, "probe quota") {
		t.Errorf("abuser eviction = %v %q", ev, reason)
	}
	if n := len(abuser.Instrumented()); n != 0 {
		t.Errorf("abuser still holds %d instrumented function(s) after eviction", n)
	}
	if ev, _ := good.Evicted(); ev {
		t.Error("well-behaved neighbour was evicted")
	}
	if n := sv.System().CommDaemons(); n != 0 {
		t.Errorf("%d comm daemon(s) leaked after eviction and close", n)
	}
	if len(sv.Evictions()) != 1 {
		t.Errorf("eviction log = %+v", sv.Evictions())
	}
	// The resident image must be clean: both sessions' probes removed.
	for _, pr := range sv.Job("smg").Guide().Processes() {
		if pr.Image().HeapWords() != 0 {
			t.Fatalf("heap words leaked in resident image: %d", pr.Image().HeapWords())
		}
	}
}

// TestRateQuotaEviction: a session that exceeds its control-op rate is
// evicted with a rate reason.
func TestRateQuotaEviction(t *testing.T) {
	s, sv, done := newTestServer(t, 13, serve.Config{
		DefaultQuota: serve.Quota{MaxCtrlPerSec: 0.1},
	}, 1)
	var sn *serve.Session
	s.Spawn("chatty", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		var err error
		sn, err = sv.Open(p, "chatty", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sn.Insert(p, "smg_solve"); err != nil { // burst token
			t.Errorf("first op: %v", err)
		}
		// The insert took well under 10s of virtual time, so no token has
		// refilled: the next op must trip the rate quota.
		if err := sn.Remove(p, "smg_solve"); !errors.Is(err, serve.ErrEvicted) {
			t.Errorf("second op = %v, want ErrEvicted", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev, reason := sn.Evicted(); !ev || !strings.Contains(reason, "control-rate") {
		t.Errorf("eviction = %v %q", ev, reason)
	}
}

// TestTraceQuotaEviction: a session whose probes generate more trace than
// its byte quota is evicted at its next control op.
func TestTraceQuotaEviction(t *testing.T) {
	s, sv, done := newTestServer(t, 17, serve.Config{
		DefaultQuota: serve.Quota{MaxTraceBytes: 20 * 24}, // ~20 events
	}, 1)
	var sn *serve.Session
	s.Spawn("tracer", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		var err error
		sn, err = sv.Open(p, "tracer", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sn.Insert(p, "smg_solve"); err != nil {
			t.Errorf("insert: %v", err)
		}
		// 4 ranks hit smg_solve every iteration (~0.8s): 10 virtual
		// seconds generate far more than 20 events.
		p.Advance(10 * des.Second)
		if err := sn.Remove(p, "smg_solve"); !errors.Is(err, serve.ErrEvicted) {
			t.Errorf("op past trace quota = %v, want ErrEvicted", err)
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev, reason := sn.Evicted(); !ev || !strings.Contains(reason, "trace quota") {
		t.Errorf("eviction = %v %q", ev, reason)
	}
	if sn.TraceBytes() <= 20*24 {
		t.Errorf("TraceBytes = %d, expected past the quota", sn.TraceBytes())
	}
}

// TestFaultEviction: on a machine with heavy control-message loss, a
// session whose insert times out (after the DPCL retry budget) is evicted
// as faulted, its daemons reclaimed, and the server survives to shut down
// cleanly.
func TestFaultEviction(t *testing.T) {
	mach := machine.MustNew("ibm-power3",
		machine.WithFaults(&fault.Plan{CtrlLossProb: 0.9}))
	s, sv, done := newTestServer(t, 23, serve.Config{Machine: mach}, 1)
	var sn *serve.Session
	s.Spawn("victim", func(p *des.Proc) {
		defer done()
		p.Advance(des.Millisecond)
		var err error
		sn, err = sv.Open(p, "victim", "smg", nil)
		if err != nil {
			t.Error(err)
			return
		}
		if err := sn.Insert(p, "smg_solve"); err == nil {
			// 90% loss per message and 6 attempts: with this seed the
			// insert must give up on at least one of the 8 transactions.
			t.Error("insert survived 90% control loss; pick a new seed")
		}
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if ev, reason := sn.Evicted(); !ev || !strings.Contains(reason, "control fault") {
		t.Errorf("eviction = %v %q", ev, reason)
	}
	if n := sv.System().CommDaemons(); n != 0 {
		t.Errorf("%d comm daemon(s) leaked after fault eviction", n)
	}
	if sv.Stats().Evicted != 1 {
		t.Errorf("stats = %+v", sv.Stats())
	}
}
