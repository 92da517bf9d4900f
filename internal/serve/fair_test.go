package serve_test

import (
	"fmt"
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/dpcl"
	"dynprof/internal/image"
	"dynprof/internal/machine"
	"dynprof/internal/proc"
	"dynprof/internal/serve"
)

// BenchmarkFairSchedServe measures one contended lane: four users each
// loop on 1ms requests, so every request but the first waits on a gate
// and is handed the lane by pick. One op is one request per user.
// Allocations stop after the first round: gates and user queues come back
// through the scheduler's free lists.
func BenchmarkFairSchedServe(b *testing.B) {
	s := des.NewScheduler(1)
	f := serve.NewFairSched()
	users := []string{"u0", "u1", "u2", "u3"}
	const warm = 4
	var served int
	for i, u := range users {
		s.Spawn(u, func(p *des.Proc) {
			for j := 0; j < warm+b.N; j++ {
				if i == 0 && j == warm {
					b.ReportAllocs()
					b.ResetTimer()
				}
				f.Serve(p, 0, u, "toggle", des.Millisecond)
				served++
			}
		})
	}
	if err := s.Run(); err != nil {
		b.Fatal(err)
	}
	b.StopTimer()
	if want := len(users) * (warm + b.N); served != want {
		b.Fatalf("served %d requests, want %d", served, want)
	}
}

// TestControlRoundTripAllocsNothing pins the allocation-free control path:
// on a fault-free system with a FairSched gate, a warm Activate plus
// Deactivate over four targets allocates nothing. Two users toggle their
// own probes on the same targets at once, so their daemons contend for
// the node's lane and requests wait on the scheduler's gates.
func TestControlRoundTripAllocsNothing(t *testing.T) {
	s := des.NewScheduler(5)
	mach := machine.MustNew("ibm-power3")
	place, err := machine.Pack(mach, 4)
	if err != nil {
		t.Fatal(err)
	}
	b := image.NewBuilder("target")
	if _, err := b.AddFunc(image.FuncSpec{Name: "hot", BodyWords: 16, Exits: 1}); err != nil {
		t.Fatal(err)
	}
	tmpl := b.Build()
	var procs []*proc.Process
	for i := 0; i < 4; i++ {
		procs = append(procs, proc.NewProcess(s, mach, fmt.Sprintf("tgt%d", i), i, place.NodeOf(i), tmpl.Clone()))
	}
	sys := dpcl.NewSystem(s, mach)
	sys.SetServeGate(serve.NewFairSched())
	noop := func(*proc.Process) image.Snippet { return func(image.ExecCtx) {} }

	// Each tool waits for a command, runs one Activate+Deactivate round
	// trip, and counts itself done.
	var done int
	var cmds []*des.Mailbox
	for _, user := range []string{"alice", "bob"} {
		cmd := des.NewMailbox(s, "cmd."+user)
		cmds = append(cmds, cmd)
		s.Spawn(user, func(p *des.Proc) {
			cl := sys.Connect(user)
			cl.Attach(p, procs)
			probe, err := cl.InstallProbe(p, procs, "hot", image.EntryPoint, 0, noop)
			if err != nil {
				t.Error(err)
				return
			}
			for {
				p.Recv(cmd)
				if err := cl.Activate(p, probe); err != nil {
					t.Error(err)
				}
				if err := cl.Deactivate(p, probe); err != nil {
					t.Error(err)
				}
				done++
			}
		})
	}
	allDone := func() bool { return done == len(cmds) }
	roundTrip := func() {
		done = 0
		for _, cmd := range cmds {
			cmd.Put(nil)
		}
		if err := s.DrainUntil(allDone); err != nil {
			t.Fatal(err)
		}
		if done != len(cmds) {
			t.Fatalf("round trip stalled: %d of %d tools done", done, len(cmds))
		}
	}
	for i := 0; i < 3; i++ {
		roundTrip() // warm the free lists, mailboxes and event queues
	}
	if allocs := testing.AllocsPerRun(20, roundTrip); allocs != 0 {
		t.Fatalf("warm Activate+Deactivate round trip allocates %v objects, want 0", allocs)
	}
	s.Stop()
	if err := s.Finish(); err != nil {
		t.Fatal(err)
	}
}
