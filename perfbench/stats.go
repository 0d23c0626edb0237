package main

import (
	"fmt"
	"sort"
)

// median returns the middle of xs (the mean of the two middle values for an
// even count); 0 for an empty slice. xs is sorted in place.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	mid := len(xs) / 2
	if len(xs)%2 == 1 {
		return xs[mid]
	}
	return (xs[mid-1] + xs[mid]) / 2
}

// mean returns the average of xs; 0 for an empty slice.
func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var sum float64
	for _, x := range xs {
		sum += x
	}
	return sum / float64(len(xs))
}

// tailMinBeyond is how many samples, at the least, must lie above the tail
// percentile; so must a tenth of them. The slowest few ops of a run are
// the ones a stolen vCPU stalled, and how many there are follows the
// host, not the program: on session-delta, with 8% of the window stolen
// instead of 1.5%, p99 read 58% higher, p95 32% and p90 19%, which is
// about what the host factor corrects.
const tailMinBeyond = 10

// tailStat is the tail latency rule's outcome: the value of the highest
// percentile (in steps of 0.1) with enough samples beyond it.
type tailStat struct {
	Value    float64 // the percentile's sample value
	Permille int     // the percentile in tenths of a percent (990 = p99)
	Beyond   int     // samples strictly above it in rank
	Samples  int     // sample count
}

// String renders the percentile the way the printed table shows it.
func (t tailStat) String() string {
	return fmt.Sprintf("p%g of %d samples, %d beyond", float64(t.Permille)/10, t.Samples, t.Beyond)
}

// tail applies the tail rule to xs (sorted in place): the highest percentile
// with max(tailMinBeyond, a tenth of n) samples beyond it, p90 from 100
// samples on.
func tail(xs []float64) tailStat {
	return tailBeyond(xs, max(tailMinBeyond, (len(xs)+9)/10))
}

// tailBeyond is the highest percentile of xs (sorted in place) with at least
// need samples beyond it. A percentile's value is its nearest-rank sample,
// the ceil(p·n)-th smallest. With need samples or fewer no percentile
// qualifies, and the maximum is reported as p100 with nothing beyond it.
func tailBeyond(xs []float64, need int) tailStat {
	n := len(xs)
	if n == 0 {
		return tailStat{}
	}
	sort.Float64s(xs)
	for pm := 999; pm > 0; pm-- {
		rank := (pm*n + 999) / 1000 // ceil(pm·n/1000), 1-based
		if rank < 1 {
			rank = 1
		}
		if beyond := n - rank; beyond >= need {
			return tailStat{Value: xs[rank-1], Permille: pm, Beyond: beyond, Samples: n}
		}
	}
	return tailStat{Value: xs[n-1], Permille: 1000, Samples: n}
}
