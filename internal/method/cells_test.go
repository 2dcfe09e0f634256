package method

import (
	"math/rand"
	"testing"

	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

// TestSegmentCellsStayInSegment pins the SEGMENTED cell layout on a
// weight-balanced synopsis whose segment widths are not multiples of
// their cell counts: every cell holds positions of one segment only, the
// segment whose cumulative read answers them, and the region-ordered
// fill files each position in the cell Bound reads it from.
func TestSegmentCellsStayInSegment(t *testing.T) {
	const n, k = 12000, 5
	rng := rand.New(rand.NewSource(7))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(rng.Intn(50) + 4000/(1+i/40))
	}
	tab := prefix.NewTable(counts)
	s, err := segment.Build(tab, counts, segment.BuildOpts{K: k, Policy: segment.WeightBalanced, BudgetWords: 80})
	if err != nil {
		t.Fatal(err)
	}
	st := segmentCells(s)
	uneven := 0
	for _, r := range st.regions {
		if r.cells < r.span && r.span%r.cells != 0 {
			uneven++
		}
	}
	if s.SegmentCount() != k || uneven < 2 {
		t.Fatalf("%d segments, %d with widths not a multiple of their cells; the layout is not exercised", s.SegmentCount(), uneven)
	}
	owner := make([]int, len(st.min))
	for c := range owner {
		owner[c] = -1
	}
	for i := range st.regions {
		r := &st.regions[i]
		for p := r.base; p < r.base+r.span; p++ {
			seg := 0
			if p > 0 {
				seg = s.Find(p - 1)
			}
			c := st.cell(p)
			if c != r.cell(p) {
				t.Fatalf("position %d: filled into cell %d, read from cell %d", p, r.cell(p), c)
			}
			if owner[c] == -1 {
				owner[c] = seg
			} else if owner[c] != seg {
				t.Fatalf("cell %d holds positions of segments %d and %d", c, owner[c], seg)
			}
		}
	}
}
