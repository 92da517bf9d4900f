package main

import (
	"sort"

	"dynprof/internal/des"
)

// quartiles returns the first quartile, median and third quartile of xs
// with the interpolation Python's statistics.quantiles(xs, n=4) uses (the
// default "exclusive" method), so the spreads printed here match the ones
// an outside checker computes from the same values. A single value is its
// own quartiles; an empty slice yields zeros.
func quartiles(xs []float64) (q1, med, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	switch len(d) {
	case 0:
		return 0, 0, 0
	case 1:
		return d[0], d[0], d[0]
	}
	q := func(i int) float64 {
		const n = 4
		m := len(d) + 1
		j := i * m / n
		if j < 1 {
			j = 1
		}
		if j > len(d)-1 {
			j = len(d) - 1
		}
		delta := float64(i*m - j*n)
		return (d[j-1]*(n-delta) + d[j]*delta) / n
	}
	return q(1), median(d), q(3)
}

// median returns the middle value of xs (the mean of the two middle values
// for an even count), 0 for an empty slice.
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return d[n/2]
	default:
		return (d[n/2-1] + d[n/2]) / 2
	}
}

// pctl returns the nearest-rank percentile of virtual-time samples in
// seconds (the rule internal/exp uses for its latency figures); 0 when
// there are no samples.
func pctl(samples []des.Time, pct int) float64 {
	if len(samples) == 0 {
		return 0
	}
	d := append([]des.Time(nil), samples...)
	sort.Slice(d, func(a, b int) bool { return d[a] < d[b] })
	return d[(len(d)-1)*pct/100].Seconds()
}

// pctlFloat is pctl over host-time samples already in a unit of choice.
func pctlFloat(samples []float64, pct int) float64 {
	if len(samples) == 0 {
		return 0
	}
	d := append([]float64(nil), samples...)
	sort.Float64s(d)
	return d[(len(d)-1)*pct/100]
}
