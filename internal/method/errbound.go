package method

// This file implements the per-range error models behind the ErrorBounded
// capability. Every model is built once, right after construction, against
// the exact data the synopsis summarized, and answers Bound(a,b) — an upper
// bound on |exact − Estimate(a,b)| — in O(log B).
//
// Two rigorous derivations cover every one-dimensional family (DESIGN.md
// §6h):
//
//   - Prefix-decomposable families (the average-histogram family, both
//     1-D wavelets and SEGMENTED): the prefix-error identity
//     err(a,b) = e[b+1] − e[a] with e[t] = P[t] − Ĉ[t] reduces every range
//     error to a difference of two pointwise cumulative errors. The model
//     quantizes [0,n] into cells and stores the min/max of e per cell; the
//     interval
//     [min_e(cell(b+1)) − max_e(cell(a)), max_e(cell(b+1)) − min_e(cell(a))]
//     contains the true error, so its larger endpoint magnitude bounds it.
//
//   - SAP families (SAP0/1/2 and SAP0-APPROX): inter-bucket answers
//     decompose as suffixModel(a) + middle + prefixModel(b), so with
//     F[a] = err(a,n−1), G[b] = err(0,b) and T = err(0,n−1) the identity
//     err(a,b) = F[a] + G[b] − T holds exactly for every pair of distinct
//     buckets (the middle δ-terms telescope). Intra-bucket answers are
//     width·avg, prefix-decomposable within the bucket, so a per-bucket
//     anchored cumulative error w covers them. The model stores per-cell
//     min/max of F, G and w.
//
// Both models add a tiny slack proportional to the magnitudes involved so
// floating-point reassociation cannot push a reported bound below an
// observed residual; the oracle error-contract suite asserts coverage on
// 100% of grid queries with zero test-side tolerance.

import (
	"fmt"
	"math"

	"rangeagg/internal/histogram"
	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

// ErrorModel bounds a synopsis's per-range error against the data it was
// built from. Bounds refer to that build-time data; staleness accounting
// is the caller's concern (engine versions, serve snapshots).
type ErrorModel interface {
	// Bound returns an upper bound on |exact − Estimate(a,b)| for an
	// in-domain range a ≤ b.
	Bound(a, b int) float64
	// Rigorous reports whether Bound is a hard guarantee (up to the
	// floating-point slack) rather than a heuristic.
	Rigorous() bool
	// MaxBound returns an upper bound on Bound over every range.
	MaxBound() float64
}

// maxErrCells caps the error-model resolution: below this many positions
// the models are per-position (bounds tight up to fp slack); above it each
// cell covers ⌈(n+1)/maxErrCells⌉ positions and bounds widen by at most
// the within-cell spread. 4096 cells cost ~64KiB per model at n=1M.
const maxErrCells = 4096

func errCells(positions int) int {
	if positions < 1 {
		return 1
	}
	if positions > maxErrCells {
		return maxErrCells
	}
	return positions
}

// cellRegion spreads positions [base, base+span) evenly over cells
// [first, first+cells).
type cellRegion struct {
	base, span, first, cells int
}

func (r *cellRegion) cell(t int) int {
	return r.first + (t-r.base)*r.cells/r.span
}

// cellStats accumulates per-cell min/max over a positional array. Its
// regions tile the positions in order, and each region has cells of its
// own, so no cell straddles a region edge.
type cellStats struct {
	regions  []cellRegion
	min, max []float64
}

// newCellStats lays out positions [0, positions) as one region.
func newCellStats(positions int) *cellStats {
	return newRegionStats([]cellRegion{{span: positions, cells: errCells(positions)}})
}

func newRegionStats(regions []cellRegion) *cellStats {
	last := regions[len(regions)-1]
	c := last.first + last.cells
	s := &cellStats{regions: regions, min: make([]float64, c), max: make([]float64, c)}
	for i := range s.min {
		s.min[i] = math.Inf(1)
		s.max[i] = math.Inf(-1)
	}
	return s
}

// cell maps position t to its cell: a binary search for the last region
// starting at or before t, which a one-region layout skips.
func (s *cellStats) cell(t int) int {
	lo, hi := 0, len(s.regions)
	for hi-lo > 1 {
		if m := (lo + hi) / 2; s.regions[m].base <= t {
			lo = m
		} else {
			hi = m
		}
	}
	return s.regions[lo].cell(t)
}

func (s *cellStats) put(c int, v float64) {
	if v < s.min[c] {
		s.min[c] = v
	}
	if v > s.max[c] {
		s.max[c] = v
	}
}

func (s *cellStats) add(t int, v float64) { s.put(s.cell(t), v) }

func (s *cellStats) at(t int) (lo, hi float64) {
	c := s.cell(t)
	return s.min[c], s.max[c]
}

// global returns the overall min/max across cells (ignoring empty cells).
func (s *cellStats) global() (lo, hi float64) {
	lo, hi = math.Inf(1), math.Inf(-1)
	for i := range s.min {
		if s.min[i] < lo {
			lo = s.min[i]
		}
		if s.max[i] > hi {
			hi = s.max[i]
		}
	}
	return lo, hi
}

// intervalBound returns max(|lo|, |hi|) — the error bound implied by the
// interval [lo, hi] known to contain the true error.
func intervalBound(lo, hi float64) float64 {
	return math.Max(math.Abs(lo), math.Abs(hi))
}

// fpSlack is the relative floating-point slack added to every reported
// bound, scaled by the magnitudes entering the interval arithmetic.
const fpSlack = 1e-9

// cumModel is the prefix-decomposable error model: per-cell min/max of the
// cumulative errors e[t] = P[t] − Ĉ[t] over t ∈ [0, n].
type cumModel struct {
	e     *cellStats
	slack float64
}

// newCumModel fills st's cells region by region with e[t], t ∈ [0, n].
// It returns the model without its slack, and max|e|, which the slack
// scales with.
func newCumModel(tab *prefix.Table, cum func(t int) float64, st *cellStats) (*cumModel, float64) {
	maxAbs := 0.0
	for i := range st.regions {
		r := &st.regions[i]
		for t := r.base; t < r.base+r.span; t++ {
			e := tab.P[t] - cum(t)
			st.put(r.cell(t), e)
			if a := math.Abs(e); a > maxAbs {
				maxAbs = a
			}
		}
	}
	return &cumModel{e: st}, maxAbs
}

func (m *cumModel) Bound(a, b int) float64 {
	loA, hiA := m.e.at(a)
	loB, hiB := m.e.at(b + 1)
	return intervalBound(loB-hiA, hiB-loA) + m.slack
}

func (m *cumModel) Rigorous() bool { return true }

func (m *cumModel) MaxBound() float64 {
	lo, hi := m.e.global()
	return (hi - lo) + m.slack
}

// sapModel is the SAP-family error model: the F/G/T endpoint decomposition
// for inter-bucket queries plus a per-bucket anchored cumulative error for
// intra-bucket queries.
type sapModel struct {
	bk *histogram.Bucketing
	// Inter-bucket: F[a] = err(a, n−1) over a ∈ [0,n), G[b] = err(0, b)
	// over b ∈ [0,n), T = err(0, n−1). Positions of F in the last bucket
	// (and of G in the first) are never used by the inter formula; their
	// presence in a cell can only widen the interval.
	f, g *cellStats
	t    float64
	// Intra-bucket: w anchored at each bucket's start. wl[t] is the value
	// under the bucket containing t (used for endpoint a), wr[t] under the
	// bucket containing t−1 (used for endpoint b+1).
	wl, wr *cellStats
	slack  float64
}

func newSAPModel(tab *prefix.Table, est Estimator, bk *histogram.Bucketing) *sapModel {
	n := tab.N()
	m := &sapModel{bk: bk,
		f:  newCellStats(n),
		g:  newCellStats(n),
		wl: newCellStats(n + 1),
		wr: newCellStats(n + 1),
	}
	maxAbs := 0.0
	track := func(v float64) float64 {
		if a := math.Abs(v); a > maxAbs {
			maxAbs = a
		}
		return v
	}
	for a := 0; a < n; a++ {
		m.f.add(a, track(est.Estimate(a, n-1)-(tab.P[n]-tab.P[a])))
	}
	for b := 0; b < n; b++ {
		m.g.add(b, track(est.Estimate(0, b)-tab.P[b+1]))
	}
	m.t = track(est.Estimate(0, n-1) - tab.P[n])
	for j := 0; j < bk.NumBuckets(); j++ {
		lo, hi := bk.Bounds(j)
		m.wl.add(lo, 0) // w_j(lo) = 0 by anchoring
		for t := lo + 1; t <= hi+1; t++ {
			w := track(est.Estimate(lo, t-1) - (tab.P[t] - tab.P[lo]))
			if t <= hi {
				m.wl.add(t, w)
			}
			m.wr.add(t, w)
		}
	}
	m.slack = fpSlack * (1 + 4*maxAbs)
	return m
}

func (m *sapModel) Bound(a, b int) float64 {
	if m.bk.Find(a) == m.bk.Find(b) {
		loA, hiA := m.wl.at(a)
		loB, hiB := m.wr.at(b + 1)
		return intervalBound(loB-hiA, hiB-loA) + m.slack
	}
	loF, hiF := m.f.at(a)
	loG, hiG := m.g.at(b)
	return intervalBound(loF+loG-m.t, hiF+hiG-m.t) + m.slack
}

func (m *sapModel) Rigorous() bool { return true }

func (m *sapModel) MaxBound() float64 {
	loL, hiL := m.wl.global()
	loR, hiR := m.wr.global()
	bound := intervalBound(loR-hiL, hiR-loL)
	if m.bk.NumBuckets() > 1 {
		loF, hiF := m.f.global()
		loG, hiG := m.g.global()
		if b := intervalBound(loF+loG-m.t, hiF+hiG-m.t); b > bound {
			bound = b
		}
	}
	return bound + m.slack
}

// errCumulative is the ErrorBound hook of every prefix-decomposable
// family. It follows the estimator's actual answering procedure: the
// rounded cumulative curve for RoundCumulative histograms (still exactly
// decomposable), and a +0.5 absolute slack for RoundAnswer ones (the
// answer differs from the cumulative difference by at most the rounding).
// A SEGMENTED synopsis keeps its cells per segment (segmentCells), and
// its slack covers the composed read's two extra roundings: the earlier
// segments' total and the segment's own cumulative read.
func errCumulative(tab *prefix.Table, est Estimator) (ErrorModel, error) {
	if s, ok := est.(*segment.Segmented); ok {
		m, maxAbs := newCumModel(tab, s.CumEstimate, segmentCells(s))
		m.slack = fpSlack * (4 + 4*maxAbs)
		return m, nil
	}
	type cumulative interface{ CumEstimate(t int) float64 }
	c, ok := est.(cumulative)
	if !ok {
		return nil, fmt.Errorf("method: %s is not prefix-decomposable", est.Name())
	}
	cum := c.CumEstimate
	extra := 0.0
	if h, ok := est.(*histogram.Avg); ok {
		switch h.Mode {
		case histogram.RoundCumulative:
			cum = func(t int) float64 { return math.Round(c.CumEstimate(t)) }
		case histogram.RoundAnswer:
			extra = 0.5
		}
	}
	m, maxAbs := newCumModel(tab, cum, newCellStats(tab.N()+1))
	m.slack = extra + fpSlack*(1+2*maxAbs)
	return m, nil
}

// segmentCells gives each segment of s one region: the positions whose
// cumulative read it evaluates (position t ≥ 1 reads the segment holding
// value t−1, and segment 0 also owns position 0), spread over an equal
// share of maxErrCells, at least one and at most one per position. A
// range endpoint on a segment edge thus reads only cells of the segment
// that answers it, and one segment's error spread never widens a
// neighbour's bounds.
func segmentCells(s *segment.Segmented) *cellStats {
	k := s.SegmentCount()
	per := max(maxErrCells/k, 1)
	regions := make([]cellRegion, k)
	first := 0
	for i := range regions {
		lo, hi := s.SegmentBounds(i)
		base, span := lo+1, hi-lo+1
		if i == 0 {
			base, span = 0, span+1
		}
		regions[i] = cellRegion{base: base, span: span, first: first, cells: min(per, span)}
		first += regions[i].cells
	}
	return newRegionStats(regions)
}

// errSAP is the ErrorBound hook of the SAP families.
func errSAP(tab *prefix.Table, est Estimator) (ErrorModel, error) {
	var bk *histogram.Bucketing
	switch h := est.(type) {
	case *histogram.SAP0:
		bk = h.Buckets
	case *histogram.SAP1:
		bk = h.Buckets
	case *histogram.SAP2:
		bk = h.Buckets
	default:
		return nil, fmt.Errorf("method: %s is not a SAP histogram", est.Name())
	}
	return newSAPModel(tab, est, bk), nil
}

// ErrorBoundFor builds the error model for an estimator whose method is
// not known — e.g. one deserialized from the wire (cmd/synquery). It
// dispatches on the representation the same way the descriptors do.
func ErrorBoundFor(tab *prefix.Table, est Estimator) (ErrorModel, error) {
	switch est.(type) {
	case *histogram.SAP0, *histogram.SAP1, *histogram.SAP2:
		return errSAP(tab, est)
	}
	return errCumulative(tab, est)
}

// ModelFor builds the error model of est, which method id built from the
// data in tab, or returns nil when the method has no per-range model.
func ModelFor(id ID, tab *prefix.Table, est Estimator) (ErrorModel, error) {
	d, err := Lookup(id)
	if err != nil || !d.Caps.Has(ErrorBounded) {
		return nil, nil
	}
	return d.ErrorBound(tab, est)
}
