package harness

import (
	"math"
	"sort"
)

// Percentile returns the nearest-rank p-th percentile (0 < p <= 100) of xs,
// which it sorts in place. It returns NaN for an empty slice.
func Percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	sort.Float64s(xs)
	i := int(math.Ceil(p/100*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

// Median is Percentile(xs, 50).
func Median(xs []float64) float64 { return Percentile(xs, 50) }

// TailPercentiles are the percentiles a report may print, lowest first.
var TailPercentiles = []float64{50, 90, 99, 99.9}

// MinBeyond is how many samples must lie beyond a percentile before it is
// reported: a p99 from 200 samples is the second-worst sample, not a p99.
const MinBeyond = 10

// Supported reports whether n samples support percentile p: at least
// MinBeyond samples must lie beyond it.
func Supported(n int, p float64) bool {
	return float64(n)*(100-p)/100 >= MinBeyond-1e-9
}

// HighestSupported returns the highest of TailPercentiles that n samples
// support, and false when n supports none of them.
func HighestSupported(n int) (float64, bool) {
	best, ok := 0.0, false
	for _, p := range TailPercentiles {
		if Supported(n, p) {
			best, ok = p, true
		}
	}
	return best, ok
}
