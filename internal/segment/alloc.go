package segment

import (
	"fmt"
	"math"

	"rangeagg/internal/dp"
	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
)

// Allocator tuning. The curves exist only to rank marginal gains, so
// they are computed at bounded resolution: a segment wider than
// curveCells is pre-aggregated to curveCells equal-width cells first
// (the advisor's coarsen trick), and no segment's curve extends past
// maxCurveUnits buckets. Both caps are independent of the budget, which
// keeps the greedy allocation monotone in W (a bigger budget replays
// the same gain sequences further, it never reorders them).
const (
	curveCells    = 512
	maxCurveUnits = 128
)

// Plan is a budget allocation across one segment partition: Units[i]
// buckets for the segment starting at Starts[i], every entry ≥ 1.
type Plan struct {
	Starts []int
	Units  []int
}

// TotalUnits sums the allocated buckets.
func (p *Plan) TotalUnits() int {
	t := 0
	for _, u := range p.Units {
		t += u
	}
	return t
}

// curve is one segment's error-vs-space curve, extended one layer at a
// time as far as the greedy reads it: vals[u] is the (coarsened)
// optimal A0 cost of summarizing the segment with u buckets, under a
// running minimum. The A0 fused cost is the same range-SSE surrogate
// the advisor's sweep and the approximate builder optimize, so the
// allocator ranks segments on the axis the per-segment builds will
// actually minimize.
type curve struct {
	dp   *dp.Stepper
	vals []float64 // vals[0] = +inf: zero buckets cover nothing
	max  int       // the last bucket count the curve reaches
}

// newCurve returns the segment's curve. A constant segment (all zero
// included) is saturated at one bucket, which already answers every
// range inside it exactly; its curve has no layers to step. The
// curve's own values cannot say so: coarsening and the running minimum
// can flatten a step that a finer summary would still take.
func newCurve(counts []int64, lo, hi int) *curve {
	if constant(counts[lo : hi+1]) {
		return &curve{max: 1}
	}
	series := curveSeries(counts, lo, hi)
	return &curve{
		dp:   dp.NewA0Stepper(prefix.NewTable(series)),
		vals: []float64{math.Inf(1)},
		max:  min(maxCurveUnits, len(series)),
	}
}

// constant reports whether every count of seg is the same.
func constant(seg []int64) bool {
	for _, v := range seg {
		if v != seg[0] {
			return false
		}
	}
	return true
}

// curveSeries is the series a segment's curve summarizes:
// counts[lo..hi], pre-aggregated to curveCells equal-width cells when
// wider.
func curveSeries(counts []int64, lo, hi int) []int64 {
	width := hi - lo + 1
	series := counts[lo : hi+1]
	if width <= curveCells {
		return series
	}
	coarse := make([]int64, curveCells)
	for c := range coarse {
		a, b := c*width/curveCells, (c+1)*width/curveCells
		for _, v := range series[a:b] {
			coarse[c] += v
		}
	}
	return coarse
}

// at returns the curve at u ≤ max buckets, stepping the DP as needed.
func (c *curve) at(u int) float64 {
	for len(c.vals) <= u {
		// Force monotone non-increasing: adding a bucket can only help
		// the true objective, but per-layer DP optima need not be
		// monotone for the fused surrogate. Running min keeps every
		// marginal gain ≥ 0.
		v := c.dp.Step()
		if last := c.vals[len(c.vals)-1]; v > last {
			v = last
		}
		c.vals = append(c.vals, v)
	}
	return c.vals[u]
}

// Allocate distributes totalUnits buckets across the segments of the
// partition by greedy marginal gain: every segment gets one bucket,
// then each remaining bucket goes to the segment whose curve drops the
// most for it (ΔSSE per added bucket; every bucket costs the same two
// words, so per-bucket and per-word ranking coincide). Ties break to
// the lowest segment index, making the allocation deterministic and —
// because the curves do not depend on the budget — monotone in
// totalUnits: growing the budget never shrinks any segment's share.
// A constant segment keeps its one bucket, so a budget larger than the
// other segments' curves can use is left unspent rather than given to
// segments where it buys nothing. A segment's curve is computed only as
// far as the greedy reads it, up to one layer past its allocation: the
// first two layers of every other segment concurrently on the shared
// pool, each later one layer-parallel as its segment wins a bucket.
func Allocate(counts []int64, starts []int, totalUnits int) (*Plan, error) {
	if err := validStarts(len(counts), starts); err != nil {
		return nil, err
	}
	k := len(starts)
	if totalUnits < k {
		return nil, fmt.Errorf("segment: %d units cannot cover %d segments (one bucket each minimum)", totalUnits, k)
	}
	units := make([]int, k)
	for i := range units {
		units[i] = 1
	}
	curves := make([]*curve, k)
	parallel.ForEach(k, func(i int) {
		lo, hi := segBounds(len(counts), starts, i)
		c := newCurve(counts, lo, hi)
		if c.max > 1 {
			c.at(2)
		}
		curves[i] = c
	})
	for remaining := totalUnits - k; remaining > 0; remaining-- {
		best, bestGain := -1, -1.0
		for i, c := range curves {
			u := units[i]
			if u >= c.max {
				continue // segment at its curve cap (or at one bucket per value)
			}
			if gain := c.at(u) - c.at(u+1); gain > bestGain {
				best, bestGain = i, gain
			}
		}
		if best < 0 {
			break // every segment saturated; leave the rest of the budget unused
		}
		units[best]++
	}
	return &Plan{Starts: append([]int(nil), starts...), Units: units}, nil
}
