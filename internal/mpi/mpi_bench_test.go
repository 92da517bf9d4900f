package mpi

import (
	"testing"

	"dynprof/internal/des"
)

// BenchmarkSendRecvPingPong measures one blocking Send/Recv round trip
// between two ranks on one SMP node: host cost per round trip, and
// sim_us its virtual latency.
func BenchmarkSendRecvPingPong(b *testing.B) {
	var start, end des.Time
	runWorld(b, 2, nil, func(c *Ctx) {
		if c.Rank() == 1 {
			for i := 0; i < b.N; i++ {
				m := c.Recv(0, 1)
				c.Send(0, 2, m.Bytes, nil)
			}
			return
		}
		b.ReportAllocs()
		b.ResetTimer()
		start = c.Thread().Now()
		for i := 0; i < b.N; i++ {
			c.Send(1, 1, 64, nil)
			c.Recv(1, 2)
		}
		end = c.Thread().Now()
		b.StopTimer()
	})
	b.ReportMetric((end-start).Seconds()*1e6/float64(b.N), "sim_us")
}

// BenchmarkAllreduceTree measures one tree AllreduceF64 across 64 ranks
// on eight nodes. One op is the whole collective, all ranks' entries
// included.
func BenchmarkAllreduceTree(b *testing.B) {
	runWorld(b, 64, nil, func(c *Ctx) {
		if c.Rank() == 0 {
			b.ReportAllocs()
			b.ResetTimer()
		}
		for i := 0; i < b.N; i++ {
			if got := c.AllreduceF64(Sum, 1); got != 64 {
				b.Errorf("allreduce = %v, want 64", got)
				return
			}
		}
	})
	b.StopTimer()
}
