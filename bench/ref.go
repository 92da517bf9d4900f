package main

import (
	"crypto/sha256"
	"sort"
	"strconv"
	"time"
)

// refSink keeps the reference kernel's results live.
var refSink int

// refKernel times a fixed amount of pure-Go work shaped like the
// simulator's, on two goroutines: cache-missing pointer chasing, goroutine
// hand-offs (DES proc switches), map traffic with fresh string keys,
// short-lived allocation, sorting and hashing. It uses none of the
// repository's code, so its time measures only how fast the host runs this
// kind of work right now. On a shared host that speed drifts by a third
// over tens of seconds; dividing a unit's wall time by the reference timed
// around it removes most of that drift.
func refKernel() time.Duration {
	if refChain == nil {
		refChain = makeRefChain()
	}
	t0 := time.Now()
	done := make(chan int)
	for w := 0; w < 2; w++ {
		go func() {
			s := 0
			for r := 0; r < 4; r++ {
				s += refOnce()
			}
			done <- s
		}()
	}
	refSink = <-done + <-done
	return time.Since(t0)
}

// refChain is a random single-cycle permutation over 32 MiB (Sattolo's
// shuffle): following it misses every cache level, like the simulator's
// pointer-heavy state. Built on first use, in the process that times the
// reference only.
var refChain []int32

func makeRefChain() []int32 {
	const n = 8 << 20
	next := make([]int32, n)
	for i := range next {
		next[i] = int32(i)
	}
	x := uint64(2003)
	for i := n - 1; i > 0; i-- {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		j := int(x % uint64(i))
		next[i], next[j] = next[j], next[i]
	}
	return next
}

func refOnce() int {
	p := int32(0)
	for i := 0; i < 400000; i++ {
		p = refChain[p]
	}
	ping, pong := make(chan int), make(chan int)
	go func() {
		for v := range ping {
			pong <- v + 1
		}
		close(pong)
	}()
	v := 0
	for i := 0; i < 20000; i++ {
		ping <- v
		v = <-pong
	}
	close(ping)
	<-pong

	m := make(map[string][]int)
	for i := 0; i < 60000; i++ {
		k := "k" + strconv.Itoa(i%5000)
		m[k] = append(m[k], i)
	}
	xs := make([]float64, 0, 200000)
	for i := 0; i < 200000; i++ {
		xs = append(xs, float64((i*7919)%200003))
	}
	sort.Float64s(xs)
	buf := make([]byte, 1<<20)
	for i := range buf {
		buf[i] = byte(i * 31)
	}
	sum := sha256.Sum256(buf)
	return v + len(m) + int(xs[len(xs)/2]) + int(sum[0]) + int(p)
}
