package main

import "sort"

// summary is one metric's distribution over the samples of a run. With
// fewer than ten samples beyond it no percentile above the median is
// meaningful, so only the median and the quartiles are reported.
type summary struct {
	Unit   string  `json:"unit"`
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// quartiles returns the first quartile, median and third quartile of vs
// exactly as Python's statistics.quantiles(vs, n=4) computes them (the
// exclusive method), so a spread worked out here equals the one the
// driver works out from the same values. A single value is its own
// quartiles; an empty slice yields zeros.
func quartiles(vs []float64) (q1, med, q3 float64) {
	n := len(vs)
	if n == 0 {
		return 0, 0, 0
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	cut := func(i int) float64 {
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
	return cut(1), cut(2), cut(3)
}

func median(vs []float64) float64 {
	_, m, _ := quartiles(vs)
	return m
}

func summarize(unit string, vs []float64) summary {
	q1, m, q3 := quartiles(vs)
	return summary{Unit: unit, Median: m, Q1: q1, Q3: q3, N: len(vs)}
}
