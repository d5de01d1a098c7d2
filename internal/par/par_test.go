package par

import (
	"runtime"
	"sort"
	"sync/atomic"
	"testing"
)

func TestDegreeGrammar(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	capped := func(w, units int) int { return max(1, min(w, units)) }
	cases := []struct {
		name                     string
		policy, units, threshold int
		want                     int
	}{
		{"auto below threshold is serial", 0, 99, 100, 1},
		{"auto at threshold uses GOMAXPROCS", 0, 100, 100, capped(procs, 100)},
		{"auto capped by units", 0, 1, 0, 1},
		{"serial", 1, 1 << 20, 0, 1},
		{"minus one is serial", -1, 1 << 20, 0, 1},
		{"n>1 below threshold is serial", 4, 99, 100, 1},
		{"n>1 at threshold", 4, 100, 100, 4},
		{"n>1 capped by units", 8, 3, 0, 3},
		{"forced bypasses threshold", -4, 10, 1 << 20, 4},
		{"forced capped by units", -8, 3, 1 << 20, 3},
		{"forced on an empty problem", -4, 0, 0, 1},
	}
	for _, tc := range cases {
		if got := Degree(tc.policy, tc.units, tc.threshold); got != tc.want {
			t.Errorf("%s: Degree(%d, %d, %d) = %d, want %d",
				tc.name, tc.policy, tc.units, tc.threshold, got, tc.want)
		}
	}
}

func TestChunkCoversRangeOnce(t *testing.T) {
	for n := 0; n <= 40; n++ {
		for k := 1; k <= 12; k++ { // k > n covers n < degree
			seen := make([]int, n)
			prev := 0
			for i := 0; i < k; i++ {
				lo, hi := Chunk(i, k, n)
				if lo != prev || hi < lo {
					t.Fatalf("Chunk(%d, %d, %d) = [%d, %d), want contiguous from %d", i, k, n, lo, hi, prev)
				}
				for j := lo; j < hi; j++ {
					seen[j]++
				}
				prev = hi
			}
			if prev != n {
				t.Fatalf("n=%d k=%d: chunks end at %d", n, k, prev)
			}
			for j, c := range seen {
				if c != 1 {
					t.Fatalf("n=%d k=%d: index %d covered %d times", n, k, j, c)
				}
			}
		}
	}
}

func TestRunRunsEveryChunk(t *testing.T) {
	for k := 0; k <= 9; k++ {
		calls := make([]int32, k)
		Run(k, func(i int) { atomic.AddInt32(&calls[i], 1) })
		for i, c := range calls {
			if c != 1 {
				t.Errorf("k=%d: fn(%d) ran %d times", k, i, c)
			}
		}
	}
}

func TestWavefrontFinishesLevelBeforeNext(t *testing.T) {
	widths := []int{1, 7, 64, 3, 100, 0, 33, 2, 250}
	offsets := []int{0}
	for _, w := range widths {
		offsets = append(offsets, offsets[len(offsets)-1]+w)
	}
	n := offsets[len(offsets)-1]
	levelOf := func(i int) int { return sort.SearchInts(offsets, i+1) - 1 }

	for _, reverse := range []bool{false, true} {
		for _, workers := range []int{1, 2, 4, 8} {
			for _, minSpan := range []int{0, 1, 16} {
				done := make([]int32, n)
				var bad atomic.Int32
				Wavefront(workers, offsets, minSpan, reverse, func(lo, hi int) {
					if lo == hi {
						return // an empty level
					}
					l := levelOf(lo)
					if levelOf(hi-1) != l {
						bad.Add(1) // a span crossed a level boundary
					}
					// Every earlier level (in walk order) is complete and no
					// later level has started.
					for j := 0; j < n; j++ {
						lj := levelOf(j)
						earlier := lj < l
						if reverse {
							earlier = lj > l
						}
						d := atomic.LoadInt32(&done[j])
						if lj != l && (earlier != (d == 1)) {
							bad.Add(1)
						}
					}
					for j := lo; j < hi; j++ {
						atomic.AddInt32(&done[j], 1)
					}
				})
				if b := bad.Load(); b != 0 {
					t.Errorf("reverse=%v workers=%d minSpan=%d: %d level-order violations", reverse, workers, minSpan, b)
				}
				for j, d := range done {
					if d != 1 {
						t.Fatalf("reverse=%v workers=%d minSpan=%d: item %d ran %d times", reverse, workers, minSpan, j, d)
					}
				}
			}
		}
	}
}
