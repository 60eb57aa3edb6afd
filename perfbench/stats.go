package main

import (
	"fmt"
	"math"
	"slices"
	"time"
)

// median returns the median of xs (the mean of the two middle values for an
// even count), or 0 for an empty slice.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns the first and third quartile of xs by the same rule as
// Python's statistics.quantiles(xs, n=4) (the default "exclusive" method),
// so that spreads computed here match the ones an external checker computes
// from the same values. It needs at least two values.
func quartiles(xs []float64) (q1, q3 float64) {
	s := slices.Clone(xs)
	slices.Sort(s)
	ld := len(s)
	if ld < 2 {
		if ld == 1 {
			return s[0], s[0]
		}
		return 0, 0
	}
	const n = 4
	m := ld + 1
	q := func(i int) float64 {
		j := i * m / n
		j = max(1, min(j, ld-1))
		delta := i*m - j*n
		return (s[j-1]*float64(n-delta) + s[j]*float64(delta)) / n
	}
	return q(1), q(3)
}

// spread is the distance between the quartiles as a share of the median.
func spread(xs []float64) float64 {
	med := median(xs)
	if med == 0 {
		return math.Inf(1)
	}
	q1, q3 := quartiles(xs)
	return (q3 - q1) / math.Abs(med)
}

// tail is the latency at the highest percentile of a fixed grid that has at
// least tailBeyond samples above it, with the facts needed to read it.
type tail struct {
	Percentile float64 `json:"percentile"`
	Value      float64 `json:"value"`
	Samples    int     `json:"samples"`
	Beyond     int     `json:"beyond"`
}

func (t tail) String() string {
	return fmt.Sprintf("p%g of %d samples, %d beyond", t.Percentile, t.Samples, t.Beyond)
}

// tailBeyond is how many samples must lie beyond a percentile for it to be
// reported; fewer make the tail a single sample's noise.
const tailBeyond = 10

// tailGrid holds the percentiles a tail may be reported at. A fixed grid keeps
// runs comparable when their sample counts differ slightly; it stops at p99
// so that runs with many samples report p99 from more than ten samples.
var tailGrid = []float64{99, 95, 90, 75, 50}

// tailOf picks the highest grid percentile with at least tailBeyond samples
// beyond it (nearest-rank). With too few samples for any grid point it falls
// back to the maximum and says so through Beyond = 0.
func tailOf(xs []float64) tail {
	n := len(xs)
	if n == 0 {
		return tail{}
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	for _, p := range tailGrid {
		rank := int(math.Ceil(p / 100 * float64(n))) // 1-based nearest rank
		if n-rank >= tailBeyond {
			return tail{Percentile: p, Value: s[rank-1], Samples: n, Beyond: n - rank}
		}
	}
	return tail{Percentile: 100, Value: s[n-1], Samples: n, Beyond: 0}
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// durationsMs converts durations to float milliseconds.
func durationsMs(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}
