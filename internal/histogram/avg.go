package histogram

import (
	"fmt"
	"math"

	"rangeagg/internal/prefix"
)

// Rounding selects how an average histogram applies the paper's "[·]"
// integer rounding when answering queries.
type Rounding int

const (
	// RoundNone answers with the exact real-valued estimate. This is what
	// the quality experiments use for every method.
	RoundNone Rounding = iota
	// RoundAnswer rounds the final answer of each query to the nearest
	// integer — the most literal reading of the paper's equation (1).
	RoundAnswer
	// RoundCumulative rounds the cumulative estimate Ĉ[t] at each prefix
	// position and answers with differences of rounded values. This is the
	// instantiation the exact OPT-A dynamic program optimizes: it is a
	// legal "arbitrary nearby integer" rounding and keeps the estimator
	// prefix-decomposable with integral errors (DESIGN.md §3.1).
	RoundCumulative
)

// Avg is the classical histogram: one summary value per bucket. It is the
// representation behind OPT-A, A0, POINT-OPT, NAIVE, the equi-width /
// equi-depth / maxdiff baselines, and every reopt'd histogram (whose
// values are no longer bucket averages). Storage: 2B words (B−1 interior
// boundaries + B values, counted as 2B as in the paper), or 1 word for the
// single-bucket NAIVE.
type Avg struct {
	Buckets *Bucketing
	// Values holds the per-bucket summary value (the bucket average for
	// OPT-A/A0, the weighted average for POINT-OPT, the re-optimized value
	// for *-reopt).
	Values []float64
	// Mode is the rounding behaviour of Estimate.
	Mode Rounding
	// Label names the construction that produced this histogram.
	Label string

	// cum[i] = Σ_{j<i} len(j)·Values[j]; cached for O(1) middle sums.
	cum []float64
}

// NewAvg assembles an average histogram from a bucketing and values.
func NewAvg(b *Bucketing, values []float64, mode Rounding, label string) (*Avg, error) {
	if err := b.Validate(); err != nil {
		return nil, err
	}
	if len(values) != b.NumBuckets() {
		return nil, fmt.Errorf("histogram: %d values for %d buckets", len(values), b.NumBuckets())
	}
	h := &Avg{Buckets: b, Values: values, Mode: mode, Label: label}
	h.rebuildCum()
	return h, nil
}

// NewAvgFromBounds computes the true bucket averages from the data for the
// given bucketing — the OPT-A representation for those boundaries.
func NewAvgFromBounds(tab *prefix.Table, b *Bucketing, mode Rounding, label string) (*Avg, error) {
	if b.N != tab.N() {
		return nil, fmt.Errorf("histogram: bucketing n=%d does not match data n=%d", b.N, tab.N())
	}
	values := make([]float64, b.NumBuckets())
	for i := range values {
		lo, hi := b.Bounds(i)
		values[i] = tab.Avg(lo, hi)
	}
	return NewAvg(b, values, mode, label)
}

// NewNaive returns the paper's NAIVE summary: the single global average.
// Its storage is a single word.
func NewNaive(tab *prefix.Table) *Avg {
	b := &Bucketing{N: tab.N(), Starts: []int{0}}
	h, err := NewAvg(b, []float64{tab.Avg(0, tab.N()-1)}, RoundNone, "NAIVE")
	if err != nil {
		panic(err) // cannot happen: the bucketing is valid by construction
	}
	return h
}

func (h *Avg) rebuildCum() {
	h.cum = make([]float64, h.Buckets.NumBuckets()+1)
	for i := 0; i < h.Buckets.NumBuckets(); i++ {
		h.cum[i+1] = h.cum[i] + float64(h.Buckets.Len(i))*h.Values[i]
	}
}

// SetValues replaces the per-bucket values (used by reopt) and refreshes
// the cached cumulative sums.
func (h *Avg) SetValues(values []float64) error {
	if len(values) != h.Buckets.NumBuckets() {
		return fmt.Errorf("histogram: %d values for %d buckets", len(values), h.Buckets.NumBuckets())
	}
	h.Values = values
	h.rebuildCum()
	return nil
}

// N returns the domain size.
func (h *Avg) N() int { return h.Buckets.N }

// Name identifies the construction.
func (h *Avg) Name() string { return h.Label }

// StorageWords returns the space accounting of the paper: 2B for a real
// histogram, 1 for the single-bucket NAIVE.
func (h *Avg) StorageWords() int {
	b := h.Buckets.NumBuckets()
	if b == 1 {
		return 1
	}
	return 2 * b
}

// CumEstimate returns the cumulative estimate Ĉ[t] = estimate of s[0,t-1],
// for t in [0,n]. The curve is piecewise linear with the bucket values as
// slopes; Ĉ[0] = 0.
func (h *Avg) CumEstimate(t int) float64 {
	if t < 0 || t > h.Buckets.N {
		panic(fmt.Sprintf("histogram: cumulative position %d outside [0,%d]", t, h.Buckets.N))
	}
	if t == 0 {
		return 0
	}
	i := h.Buckets.Find(t - 1)
	lo, _ := h.Buckets.Bounds(i)
	return h.cum[i] + float64(t-lo)*h.Values[i]
}

// Estimate answers the range query [a,b] (inclusive) with the paper's
// equation (1), applying the configured rounding.
func (h *Avg) Estimate(a, b int) float64 {
	if a < 0 || b >= h.Buckets.N || a > b {
		panic(fmt.Sprintf("histogram: invalid range [%d,%d] for n=%d", a, b, h.Buckets.N))
	}
	switch h.Mode {
	case RoundCumulative:
		return math.Round(h.CumEstimate(b+1)) - math.Round(h.CumEstimate(a))
	case RoundAnswer:
		return math.Round(h.CumEstimate(b+1) - h.CumEstimate(a))
	default:
		return h.CumEstimate(b+1) - h.CumEstimate(a)
	}
}

// String summarizes the histogram.
func (h *Avg) String() string {
	return fmt.Sprintf("%s{buckets=%d words=%d}", h.Label, h.Buckets.NumBuckets(), h.StorageWords())
}
