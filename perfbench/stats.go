package main

import (
	"math/bits"
	"sort"
)

// median returns the middle value of xs (the mean of the two middle
// values for an even count); 0 for none.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quantile is the q-quantile of xs by linear interpolation between order
// statistics.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// Latency histograms are log-linear with latSubBits sub-buckets per
// power of two (stats.NewLatencyHistogram). bucketBounds returns bucket
// i's lower bound and width, so a quantile can be interpolated inside its
// bucket instead of snapping to the bucket's lower edge; the tests pin
// these bounds against stats.Histogram.
const latSubBits = 8

func bucketBounds(i int) (lo, width float64) {
	sub := 1 << latSubBits
	if i < 2*sub {
		return float64(i), 1
	}
	mag := i>>latSubBits - 1
	return float64((sub + i&(sub-1)) << mag), float64(uint64(1) << mag)
}

// bucketOf is the bucket index of value v.
func bucketOf(v int64) int {
	sub := int64(1) << latSubBits
	if v < sub {
		return int(v)
	}
	mag := 63 - bits.LeadingZeros64(uint64(v)) - latSubBits
	return (mag+1)<<latSubBits + int((v>>uint(mag))&(sub-1))
}

// deltaQuantile is the q-quantile, in ns, of the samples in cur that are
// not in prev (two bucket snapshots of one histogram), interpolated inside
// the bucket where the rank falls.
func deltaQuantile(cur, prev []uint64, q float64) float64 {
	var total uint64
	for i := range cur {
		total += cur[i] - prev[i]
	}
	if total == 0 {
		return 0
	}
	rank := q * float64(total)
	var cum float64
	for i := range cur {
		c := float64(cur[i] - prev[i])
		if c > 0 && cum+c >= rank {
			lo, w := bucketBounds(i)
			return lo + w*(rank-cum)/c
		}
		cum += c
	}
	return 0
}
