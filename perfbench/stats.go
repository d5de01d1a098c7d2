package main

import "sort"

// median returns the median of xs (0 for an empty slice).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// tail returns the latency at the highest percentile that still has at
// least ten samples beyond it — the sample with exactly ten larger
// ones — together with that percentile. With ten samples or fewer no
// such percentile exists and ok is false.
func tail(xs []float64) (v, pct float64, ok bool) {
	n := len(xs)
	if n <= 10 {
		return 0, 0, false
	}
	s := sorted(xs)
	i := n - 11
	return s[i], 100 * float64(i+1) / float64(n), true
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// ratio returns num/den, or 0 when den is 0 (no attempts, no waste).
func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}
