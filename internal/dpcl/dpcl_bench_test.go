package dpcl

import (
	"testing"

	"dynprof/internal/des"
	"dynprof/internal/image"
	"dynprof/internal/proc"
)

// BenchmarkInstallAck measures the DPCL control round trip on a
// fault-free system: one op installs an entry probe in one target and
// blocks for the daemon's ack (request jitter, daemon service, ack
// jitter), then removes it the same way. sim_ms is the virtual time of
// the install alone.
func BenchmarkInstallAck(b *testing.B) {
	r := newRig(b, 1)
	noop := func(*proc.Process) image.Snippet { return func(image.ExecCtx) {} }
	var installed des.Time
	r.s.Spawn("tool", func(p *des.Proc) {
		cl := r.sys.Connect("u")
		cl.Attach(p, r.procs)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			t0 := p.Now()
			probe, err := cl.InstallProbe(p, r.procs, "hot", image.EntryPoint, 0, noop)
			if err != nil {
				b.Error(err)
				return
			}
			installed += p.Now() - t0
			if err := cl.Remove(p, probe); err != nil {
				b.Error(err)
				return
			}
		}
		b.StopTimer()
		cl.Disconnect()
	})
	if err := r.s.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(installed.Seconds()*1e3/float64(b.N), "sim_ms")
}
