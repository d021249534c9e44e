package main

import "slices"

// rank returns the q-quantile of sorted by exact rank: the smallest
// sample with at least a q share of the samples at or below it.
func rank(sorted []uint32, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return 0
	}
	i := int(float64(n)*q+0.999999999) - 1
	return float64(sorted[min(max(i, 0), n-1)])
}

func median[T any](xs []T, f func(T) float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	v := make([]float64, len(xs))
	for i, x := range xs {
		v[i] = f(x)
	}
	slices.Sort(v)
	n := len(v)
	if n%2 == 1 {
		return v[n/2]
	}
	return (v[n/2-1] + v[n/2]) / 2
}
