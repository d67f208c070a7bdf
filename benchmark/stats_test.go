package main

import "testing"

// The expected values are what Python's statistics.quantiles(vs, n=4)
// returns, the function the benchmark's bounds are judged with.
func TestQuartilesMatchPython(t *testing.T) {
	cases := []struct {
		vs          []float64
		q1, med, q3 float64
	}{
		{[]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}, 2.75, 5.5, 8.25},
		{[]float64{1, 2, 3, 4, 5}, 1.5, 3, 4.5},
		{[]float64{5, 1, 4, 2, 3, 6, 7}, 2, 4, 6},
		{[]float64{3, 1}, 0.5, 2, 3.5},
		{[]float64{7}, 7, 7, 7},
		{nil, 0, 0, 0},
	}
	for _, c := range cases {
		q1, med, q3 := quartiles(c.vs)
		if q1 != c.q1 || med != c.med || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %v %v %v, want %v %v %v", c.vs, q1, med, q3, c.q1, c.med, c.q3)
		}
	}
}

func TestQuartilesLeaveInputUnsorted(t *testing.T) {
	vs := []float64{3, 1, 2}
	quartiles(vs)
	if vs[0] != 3 || vs[1] != 1 || vs[2] != 2 {
		t.Errorf("quartiles reordered its argument: %v", vs)
	}
}

func TestSummarize(t *testing.T) {
	s := summarize("s", []float64{4, 2, 1, 3})
	want := summary{Unit: "s", Median: 2.5, Q1: 1.25, Q3: 3.75, N: 4}
	if s != want {
		t.Errorf("summarize = %+v, want %+v", s, want)
	}
}
