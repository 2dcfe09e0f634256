package oracle_test

import (
	"math"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

// composeCum recomputes a segmented synopsis's cumulative curve
// independently of its implementation: a left-to-right running total of
// the per-segment cumulative reads, exactly the composition DESIGN.md
// specifies. Because the synopsis evaluates every range as a difference
// of two cumulative reads accumulated in this same order, the two must
// agree bit-for-bit — any drift means the composed answering and the
// per-segment answering have diverged.
func composeCum(s *segment.Segmented, t int) float64 {
	if t == 0 {
		return 0
	}
	var total float64
	for i, seg := range s.Segs {
		lo, hi := s.SegmentBounds(i)
		if t-1 <= hi {
			return total + seg.CumEstimate(t-lo)
		}
		total += seg.CumEstimate(hi - lo + 1)
	}
	panic("position outside domain")
}

// TestSegmentedMatchesComposition checks, for every partition policy and
// segment count on every dataset, that the segmented synopsis's range
// answers are bit-exactly the composition of its per-segment answers —
// including ranges crossing segment edges.
func TestSegmentedMatchesComposition(t *testing.T) {
	const n, w = 64, 32
	for dname, counts := range datasets(t, n) {
		for _, policy := range []string{"equi-width", "weight-balanced"} {
			for _, k := range []int{2, 4, 8} {
				opt := build.Options{Method: build.Segmented, BudgetWords: w,
					Segments: k, SegmentPolicy: policy}
				est, err := build.Build(counts, opt)
				if err != nil {
					t.Fatalf("%s/%s/K=%d: %v", dname, policy, k, err)
				}
				s, ok := est.(*segment.Segmented)
				if !ok {
					t.Fatalf("%s/%s/K=%d: built %T, want *segment.Segmented", dname, policy, k, est)
				}
				for a := 0; a < n; a++ {
					for b := a; b < n; b++ {
						want := composeCum(s, b+1) - composeCum(s, a)
						if got := s.Estimate(a, b); got != want {
							t.Fatalf("%s/%s/K=%d: Estimate(%d,%d) = %g, composed %g",
								dname, policy, k, a, b, got, want)
						}
					}
				}
			}
		}
	}
}

// TestSegmentedAllocatorSanity checks the global-budget contract on every
// dataset: total storage never exceeds the budget, every segment holds at
// least one bucket, and growing the budget never shrinks any segment's
// share (the greedy allocation is monotone in W).
func TestSegmentedAllocatorSanity(t *testing.T) {
	const n, k = 64, 4
	for dname, counts := range datasets(t, n) {
		tab := prefix.NewTable(counts)
		starts, err := segment.Split(tab, k, segment.EquiWidth)
		if err != nil {
			t.Fatal(err)
		}
		prev := make([]int, len(starts))
		for _, w := range []int{16, 24, 40, 64} {
			est, err := build.Build(counts, build.Options{Method: build.Segmented,
				BudgetWords: w, Segments: k})
			if err != nil {
				t.Fatalf("%s/W=%d: %v", dname, w, err)
			}
			if est.StorageWords() > w {
				t.Errorf("%s/W=%d: storage %d words over budget", dname, w, est.StorageWords())
			}
			units := (w - len(starts)) / 2
			pl, err := segment.Allocate(counts, starts, units)
			if err != nil {
				t.Fatal(err)
			}
			if got := pl.TotalUnits(); got > units {
				t.Errorf("%s/W=%d: allocated %d units from a pool of %d", dname, w, got, units)
			}
			for i, u := range pl.Units {
				if u < 1 {
					t.Errorf("%s/W=%d: segment %d starved (%d units)", dname, w, i, u)
				}
				if u < prev[i] {
					t.Errorf("%s/W=%d: segment %d shrank from %d to %d units", dname, w, i, prev[i], u)
				}
			}
			copy(prev, pl.Units)
		}
	}
}

// TestSegmentedBoundCoversError checks the segmented error model's
// certificate against brute force on every dataset and policy: for every
// range, |exact − estimate| ≤ Bound. It checks each synopsis as built,
// and again after a one-value mutation and a window rebuild, against the
// mutated data.
func TestSegmentedBoundCoversError(t *testing.T) {
	const n, w = 64, 26
	d := method.MustLookup(method.Segmented)
	covers := func(label string, counts []int64, est build.Estimator) {
		t.Helper()
		m, err := d.ErrorBound(prefix.NewTable(counts), est)
		if err != nil {
			t.Fatalf("%s: error model: %v", label, err)
		}
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				exact := float64(RangeSumRef(counts, a, b))
				if e := math.Abs(est.Estimate(a, b) - exact); e > m.Bound(a, b) {
					t.Fatalf("%s: range [%d,%d] error %g exceeds bound %g", label, a, b, e, m.Bound(a, b))
				}
			}
		}
	}
	for dname, counts := range datasets(t, n) {
		for _, policy := range []string{"equi-width", "weight-balanced"} {
			est, err := build.Build(counts, build.Options{Method: build.Segmented,
				BudgetWords: w, Segments: 4, SegmentPolicy: policy})
			if err != nil {
				t.Fatal(err)
			}
			covers(dname+"/"+policy, counts, est)

			mut := append([]int64(nil), counts...)
			mut[40] += 500
			next, _, err := segment.Rebuild(mut, est.(*segment.Segmented), 40, 40, 0)
			if err != nil {
				t.Fatal(err)
			}
			covers(dname+"/"+policy+"/rebuilt", mut, next)
		}
	}
}

// RangeSumRef sums counts[a..b] directly (the oracle definition, inlined
// so this file stays self-contained).
func RangeSumRef(counts []int64, a, b int) int64 {
	var s int64
	for i := a; i <= b; i++ {
		s += counts[i]
	}
	return s
}
