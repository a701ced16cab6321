package main

import "sort"

// median returns the middle value of vs (the mean of the two middle values
// for an even count), or 0 for none.
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

// tail is the highest percentile of a latency sample that still has at
// least tailBeyond samples above it, with the percentile and sample count it
// was read at. Samples too few to leave that many above the median report
// their maximum (percentile 100) instead.
type tail struct {
	Value      float64
	Percentile float64
	N          int
}

const tailBeyond = 10

func tailOf(vs []float64) tail {
	n := len(vs)
	if n == 0 {
		return tail{}
	}
	s := append([]float64(nil), vs...)
	sort.Float64s(s)
	if n < 2*tailBeyond {
		return tail{Value: s[n-1], Percentile: 100, N: n}
	}
	rank := n - tailBeyond - 1 // exactly tailBeyond samples lie above s[rank]
	return tail{Value: s[rank], Percentile: 100 * float64(rank+1) / float64(n), N: n}
}

// ratio returns a/b, or 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}
