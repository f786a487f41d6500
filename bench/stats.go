package main

import (
	"math"
	"sort"
)

// median returns the middle of vs (mean of the two middles for an even
// count); 0 for an empty slice.
func median(vs []float64) float64 {
	if len(vs) == 0 {
		return 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of vs exactly as
// Python's statistics.quantiles(vs, n=4) does (the exclusive method),
// because that is how the benchmark's spreads are judged. It needs two
// or more values; with fewer both quartiles are the single value.
func quartiles(vs []float64) (q1, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return vs[0], vs[0]
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := float64(i*m - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return at(1), at(3)
}

// spread is the interquartile range of vs as a share of its median:
// the noise figure every bound in BENCHMARK.json is compared against.
func spread(vs []float64) float64 {
	med := median(vs)
	if len(vs) < 2 || med == 0 {
		return 0
	}
	q1, q3 := quartiles(vs)
	return math.Abs((q3 - q1) / med)
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100)
// of an ascending slice.
func percentile(sorted []int64, p float64) int64 {
	if len(sorted) == 0 {
		return 0
	}
	// The epsilon keeps 99.9% of 1000 at rank 999, not 999.0000000001.
	rank := int(math.Ceil(p/100*float64(len(sorted)) - 1e-9))
	if rank < 1 {
		rank = 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1]
}

// groupPercentile sorts samples into groups (group[i] is the group of
// samples[i], in [0, groups)) and returns the p-th percentile of each
// group; NaN for a group without samples.
func groupPercentile(samples []int64, group []int32, groups int, p float64) []float64 {
	buckets := make([][]int64, groups)
	for i, v := range samples {
		buckets[group[i]] = append(buckets[group[i]], v)
	}
	out := make([]float64, groups)
	for g, b := range buckets {
		if len(b) == 0 {
			out[g] = math.NaN()
			continue
		}
		sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
		out[g] = float64(percentile(b, p))
	}
	return out
}

// bestOf is how every time in this benchmark is condensed. rounds holds
// one row per repetition of the same series of measurements (a paced
// pass's epochs, a recovery round's restart points; NaN where a round
// has no figure). The neighbours of a shared host only ever add time, in
// stretches of milliseconds to minutes that no counter shows, so the
// median over repetitions moves with how many of them a stretch hit
// (within one hour the same code read 2.0 and 2.7 ms on a restart,
// 0.94M and 0.78M edges/s). The fastest repetition of each measurement
// is what the program takes when left alone; the median over the series
// is then the typical measurement, not the luckiest.
func bestOf(rounds [][]float64) float64 {
	var best []float64
	for c := range rounds[0] {
		b := math.NaN()
		for _, row := range rounds {
			if v := row[c]; !math.IsNaN(v) && !(v >= b) {
				b = v
			}
		}
		if !math.IsNaN(b) {
			best = append(best, b)
		}
	}
	return median(best)
}
