// Package segment is the segmented-synopsis core: it partitions the
// attribute domain into K contiguous segments (the Storyboard
// composition the ROADMAP's production-scale mode needs), summarizes
// each segment independently on the shared worker pool, and distributes
// one global word budget across the segments by greedy marginal ΔSSE
// per word, read off the layer DP's error-vs-space curves. The
// resulting Segmented estimator is prefix-decomposable — its cumulative
// curve is the running composition of the per-segment curves — so range
// answers compose across segment edges exactly and the prefix-error
// identity yields a rigorous per-range error model (internal/method)
// whose cells never straddle a segment edge.
//
// The package is representation-level only (like internal/histogram):
// it knows nothing about the method registry. internal/method wires it
// in as the SEGMENTED family; engine and serve reach it exclusively
// through registry hooks.
package segment

import (
	"fmt"

	"rangeagg/internal/histogram"
	"rangeagg/internal/prefix"
)

// Policy selects how the domain is split into segments.
type Policy int

const (
	// EquiWidth splits the domain into K near-equal-width segments —
	// data-independent boundaries, so shards built over the same domain
	// always agree on the partition (the mergeable deployment).
	EquiWidth Policy = iota
	// WeightBalanced places segment boundaries at the quantiles of the
	// data mass, so each segment summarizes roughly Total/K records —
	// finer segments where the mass concentrates.
	WeightBalanced
)

// String names the policy as ParsePolicy accepts it.
func (p Policy) String() string {
	if p == WeightBalanced {
		return "weight-balanced"
	}
	return "equi-width"
}

// ParsePolicy resolves a policy name; the empty string selects the
// default (equi-width).
func ParsePolicy(s string) (Policy, error) {
	switch s {
	case "", "equi-width":
		return EquiWidth, nil
	case "weight-balanced":
		return WeightBalanced, nil
	}
	return 0, fmt.Errorf("segment: unknown partition policy %q (want equi-width or weight-balanced)", s)
}

// Split partitions [0,n) into at most k contiguous segments under the
// policy and returns the segment start positions (ascending, first 0).
// Fewer than k segments come back when the domain is too small or the
// mass too concentrated for distinct boundaries.
func Split(tab *prefix.Table, k int, p Policy) ([]int, error) {
	if k <= 0 {
		return nil, fmt.Errorf("segment: need a positive segment count, got %d", k)
	}
	var bk *histogram.Bucketing
	var err error
	switch p {
	case WeightBalanced:
		bk, err = histogram.EquiDepth(tab, k)
	default:
		bk, err = histogram.EquiWidth(tab.N(), k)
	}
	if err != nil {
		return nil, err
	}
	starts := make([]int, len(bk.Starts))
	copy(starts, bk.Starts)
	return starts, nil
}

// validStarts checks the structural invariants of a segment-start slice
// over domain n.
func validStarts(n int, starts []int) error {
	bk := &histogram.Bucketing{N: n, Starts: starts}
	if err := bk.Validate(); err != nil {
		return fmt.Errorf("segment: invalid segment starts: %w", err)
	}
	return nil
}

// segBounds returns the inclusive range [lo,hi] of segment i of the
// partition.
func segBounds(n int, starts []int, i int) (lo, hi int) {
	lo = starts[i]
	if i+1 < len(starts) {
		hi = starts[i+1] - 1
	} else {
		hi = n - 1
	}
	return lo, hi
}
