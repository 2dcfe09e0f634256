// Package rangeagg computes summary statistics that answer range-sum
// queries (selectivity estimation) with provable quality, reproducing
// "Optimal and Approximate Computation of Summary Statistics for Range
// Aggregates" (Gilbert, Kotidis, Muthukrishnan, Strauss — PODS 2001).
//
// The input is an attribute-value distribution: counts[i] is the number of
// records whose attribute equals i. A Synopsis built from it answers every
// range query s[a,b] = Σ counts[a..b] approximately within a storage
// budget measured in machine words. The quality metric throughout is the
// paper's sum-squared error over all n(n+1)/2 ranges.
//
// Quick start:
//
//	syn, err := rangeagg.Build(counts, rangeagg.Options{
//		Method:      rangeagg.OptA,   // the paper's range-optimal histogram
//		BudgetWords: 32,
//	})
//	est := syn.Estimate(10, 42)      // ≈ Σ counts[10..42]
//	quality := rangeagg.SSE(counts, syn)
//
// Methods span the paper's histograms (OPT-A exact pseudo-polynomial DP,
// OPT-A-ROUNDED, SAP0, SAP1, A0, POINT-OPT, NAIVE), classical baselines
// (equi-width, equi-depth, maxdiff, V-optimal), and wavelet summaries
// (TOPBB, the 2-D AA construction of the paper's §3, and a prefix-domain
// range-optimal selection). The §5 value re-optimization ("A-reopt") is
// available on any average-representation method via Options.Reopt.
//
// For a full storage engine around these synopses — record ingest, named
// synopsis lifecycle, exact and approximate COUNT/SUM queries — see
// NewEngine.
package rangeagg

import (
	"errors"
	"fmt"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
	"rangeagg/internal/reopt"
	"rangeagg/internal/sse"
)

// Synopsis answers approximate range-sum queries over [0, N).
type Synopsis interface {
	// Estimate approximates s[a,b] for the inclusive range [a,b],
	// 0 ≤ a ≤ b < N. It panics on invalid ranges; use an Engine for
	// clamped user-facing queries.
	Estimate(a, b int) float64
	// N is the attribute domain size.
	N() int
	// StorageWords is the summary's space in machine words under the
	// paper's accounting.
	StorageWords() int
	// Name identifies the construction, e.g. "OPT-A" or "SAP0".
	Name() string
}

// Method selects a synopsis construction algorithm.
type Method int

// The available methods, named as in the paper.
const (
	// Naive stores the single global average (1 word).
	Naive Method = iota
	// EquiWidth is the classical fixed-width histogram.
	EquiWidth
	// EquiDepth is the classical quantile histogram.
	EquiDepth
	// MaxDiff places boundaries after the largest adjacent differences.
	MaxDiff
	// VOptimal is the point-query-optimal histogram of Jagadish et al.
	VOptimal
	// PointOpt is V-optimal with points weighted by their probability of
	// being covered by a random range — the paper's POINT-OPT baseline.
	PointOpt
	// A0 is the paper's fast 2B-word heuristic for range queries.
	A0
	// SAP0 is the paper's optimal suffix/average/prefix histogram
	// (3B words, O(n²B) construction).
	SAP0
	// SAP1 is the paper's optimal higher-order histogram (5B words).
	SAP1
	// OptA is the range-optimal classical histogram via the exact
	// pseudo-polynomial dynamic program (Theorems 1-2), falling back to
	// OPT-A-ROUNDED automatically when the instance is too large.
	OptA
	// OptARounded is the (1+ε)-approximate OPT-A (Theorem 4).
	OptARounded
	// WaveTopBB keeps the largest Haar coefficients of the data — the
	// classical wavelet heuristic, optimal for point queries only.
	WaveTopBB
	// WaveRangeOpt keeps the range-optimal Haar coefficients of the
	// prefix-sum array.
	WaveRangeOpt
	// WaveAA2D is the paper's §3 two-dimensional wavelet over the virtual
	// range-sum matrix.
	WaveAA2D
	// PrefixOpt is optimal for prefix queries [0,b] only — the restricted
	// class covered by pre-paper optimality results; a baseline for why
	// arbitrary ranges need the paper's algorithms.
	PrefixOpt
	// SAP2 stores quadratic suffix/prefix models per bucket (7B words) —
	// the next member of the paper's §2.2.2 higher-order family, optimal
	// for its representation.
	SAP2
	// SAP0Approx is the (1+ε)-approximate SAP0: same 3B-word
	// representation, boundaries from the near-linear sparse dynamic
	// program (internal/approx) instead of the O(n²B) exact one. Requires
	// Options.Epsilon ∈ (0,1); scales to domains of millions of values.
	SAP0Approx
	// A0Approx is the (1+ε)-approximate counterpart of A0 (2B words,
	// near-linear construction). Requires Options.Epsilon ∈ (0,1).
	A0Approx
	// PointOptApprox is the (1+ε)-approximate POINT-OPT; its weighted
	// V-optimal objective is interval-monotone, so the (1+ε) bound on the
	// construction objective is rigorous. Requires Options.Epsilon ∈ (0,1).
	PointOptApprox
	// Segmented partitions the domain into contiguous segments
	// (Options.Segments, Options.SegmentPolicy), summarizes each
	// independently, and distributes BudgetWords across segments by greedy
	// marginal gain. Answers compose across segment edges exactly; shards
	// built under the equi-width policy merge exactly.
	Segmented
)

// UnknownMethodError reports a Method value with no registry entry —
// a value outside the enum, or a corrupted persisted configuration.
type UnknownMethodError struct {
	Method Method
}

func (e *UnknownMethodError) Error() string {
	return fmt.Sprintf("rangeagg: unknown method %d", int(e.Method))
}

// UnknownSynopsisError reports an engine query naming a synopsis that
// was never built or has been dropped. Every facade entry point that
// resolves a synopsis name returns this one type, so callers branch
// with errors.As instead of matching message shapes — and the unknown-
// name and unknown-metric paths fail with the same typed-error shape.
type UnknownSynopsisError struct {
	// Name is the synopsis name that failed to resolve.
	Name string
}

func (e *UnknownSynopsisError) Error() string {
	return fmt.Sprintf("rangeagg: no synopsis named %q", e.Name)
}

// UnknownMetricError reports an unparseable metric name (reaches the
// facade through persisted or remote configurations; the Metric enum
// itself cannot express one).
type UnknownMetricError struct {
	// Name is the metric string that failed to parse.
	Name string
}

func (e *UnknownMetricError) Error() string {
	return fmt.Sprintf("rangeagg: unknown metric %q", e.Name)
}

// wrapEngineErr translates the internal engine's typed errors into
// their public facade counterparts, passing everything else through.
func wrapEngineErr(err error) error {
	var us *engine.UnknownSynopsisError
	if errors.As(err, &us) {
		return &UnknownSynopsisError{Name: us.Name}
	}
	var um *engine.UnknownMetricError
	if errors.As(err, &um) {
		return &UnknownMetricError{Name: um.Name}
	}
	return err
}

// InvalidEpsilonError reports an approximation parameter outside (0,1)
// passed to a method that requires one (the Approximate-capability
// families: SAP0-APPROX, A0-APPROX, POINT-OPT-APPROX). A zero Epsilon —
// the field's default — is invalid for these methods: there is no
// meaningful default quality target, so the caller must choose one.
type InvalidEpsilonError struct {
	Method  Method
	Epsilon float64
}

func (e *InvalidEpsilonError) Error() string {
	return fmt.Sprintf("rangeagg: method %s requires epsilon in (0,1), got %v", e.Method, e.Epsilon)
}

// resolve validates the method against the registry and returns its
// internal ID. Every facade entry point that accepts a Method goes
// through it; an unregistered value yields *UnknownMethodError rather
// than an out-of-range cast reaching the internals.
func (m Method) resolve() (build.Method, error) {
	id := build.Method(m)
	if _, err := method.Lookup(id); err != nil {
		return 0, &UnknownMethodError{Method: m}
	}
	return id, nil
}

// validateEpsilon rejects ε outside (0,1) for Approximate-capability
// methods before the build starts (NaN fails both comparisons). Other
// methods ignore the check: their Epsilon semantics (OPT-A-ROUNDED)
// tolerate zero.
func (m Method) validateEpsilon(eps float64) error {
	d, err := method.Lookup(build.Method(m))
	if err != nil || !d.Caps.Has(method.Approximate) {
		return nil
	}
	if eps > 0 && eps < 1 {
		return nil
	}
	return &InvalidEpsilonError{Method: m, Epsilon: eps}
}

// String returns the method's paper name.
func (m Method) String() string { return build.Method(m).String() }

// Capabilities lists the method's registered capability flags (e.g.
// "mergeable", "serializable"), empty for unknown methods. Callers can
// discover what a method supports — shard merging, wire export, error
// bounds — without hard-coding method lists.
func (m Method) Capabilities() []string {
	d, err := method.Lookup(build.Method(m))
	if err != nil {
		return nil
	}
	return d.Caps.List()
}

// ParseMethod resolves a method from its paper name, e.g. "OPT-A".
func ParseMethod(s string) (Method, error) {
	im, err := build.ParseMethod(s)
	if err != nil {
		return 0, err
	}
	return Method(im), nil
}

// Methods lists all available methods.
func Methods() []Method {
	out := make([]Method, method.Count())
	for i := range out {
		out[i] = Method(i)
	}
	return out
}

// Options parameterizes Build.
type Options struct {
	// Method selects the construction algorithm.
	Method Method
	// BudgetWords is the storage budget in machine words. Each method
	// derives its bucket/coefficient count from it (e.g. OPT-A uses
	// BudgetWords/2 buckets, SAP1 BudgetWords/5). Naive ignores it.
	BudgetWords int
	// Reopt applies the paper's §5 value re-optimization after
	// construction. Valid for average-representation methods only.
	Reopt bool
	// LocalSearch applies boundary coordinate descent after construction
	// (before Reopt); average-representation methods only.
	LocalSearch bool
	// Seed drives randomized steps (OPT-A-ROUNDED's data rounding).
	Seed int64
	// Epsilon is the approximation quality target: required in (0,1) for
	// the approximate-construction methods (SAP0Approx, A0Approx,
	// PointOptApprox), where the construction objective is within (1+ε) of
	// optimal; also OPT-A-ROUNDED's quality target when RoundedX is 0.
	Epsilon float64
	// RoundedX overrides OPT-A-ROUNDED's rounding parameter directly.
	RoundedX int64
	// MaxStates bounds the exact OPT-A dynamic program's memory; 0 uses
	// a default of a few million states.
	MaxStates int
	// CoarsenTo, when positive and below the domain size, pre-aggregates
	// the domain to that many equal-width cells before running a
	// bucket-based construction and lifts the boundaries back — how the
	// quadratic algorithms scale to domains of millions of values.
	CoarsenTo int
	// Segments is the requested segment count for the Segmented method;
	// 0 selects the default (8). Other methods ignore it.
	Segments int
	// SegmentPolicy selects the Segmented method's partitioner:
	// "equi-width" (default) or "weight-balanced".
	SegmentPolicy string
}

// Build constructs a synopsis over the attribute-value distribution.
// Counts must be non-empty and non-negative.
func Build(counts []int64, opt Options) (Synopsis, error) {
	im, err := opt.Method.resolve()
	if err != nil {
		return nil, err
	}
	if err := opt.Method.validateEpsilon(opt.Epsilon); err != nil {
		return nil, err
	}
	for i, c := range counts {
		if c < 0 {
			return nil, fmt.Errorf("rangeagg: negative count %d at value %d", c, i)
		}
	}
	return build.Build(counts, build.Options{
		Method:        im,
		BudgetWords:   opt.BudgetWords,
		Reopt:         opt.Reopt,
		LocalSearch:   opt.LocalSearch,
		Seed:          opt.Seed,
		Epsilon:       opt.Epsilon,
		RoundedX:      opt.RoundedX,
		MaxStates:     opt.MaxStates,
		CoarsenTo:     opt.CoarsenTo,
		Segments:      opt.Segments,
		SegmentPolicy: opt.SegmentPolicy,
	})
}

// Range is an inclusive query range.
type Range struct{ A, B int }

// Metrics aggregates estimation error over a workload.
type Metrics struct {
	// Queries is the workload size.
	Queries int
	// SSE is the sum of squared errors.
	SSE float64
	// MAE is the mean absolute error.
	MAE float64
	// MaxAbs is the worst absolute error.
	MaxAbs float64
	// RMS is sqrt(SSE/Queries).
	RMS float64
	// MeanRel is the mean relative error over queries with non-zero truth.
	MeanRel float64
}

// SSE returns the exact sum-squared error of the synopsis over all ranges
// of the distribution — the paper's quality metric. It uses the fastest
// exact evaluation path available for the synopsis type (O(n) for
// prefix-decomposable summaries).
func SSE(counts []int64, s Synopsis) float64 {
	tab := prefix.NewTable(counts)
	return sse.Of(tab, s)
}

// Evaluate computes error metrics for the synopsis over an explicit
// workload of ranges.
func Evaluate(counts []int64, s Synopsis, queries []Range) Metrics {
	tab := prefix.NewTable(counts)
	qs := make([]sse.Range, len(queries))
	for i, q := range queries {
		qs[i] = sse.Range{A: q.A, B: q.B}
	}
	m := sse.Evaluate(tab, s, qs)
	return Metrics{Queries: m.Queries, SSE: m.SSE, MAE: m.MAE,
		MaxAbs: m.MaxAbs, RMS: m.RMS, MeanRel: m.MeanRel}
}

// AllRanges enumerates every range of an n-value domain (the paper's
// workload; n(n+1)/2 queries).
func AllRanges(n int) []Range {
	return convertRanges(sse.AllRanges(n))
}

// RandomRanges samples k ranges uniformly.
func RandomRanges(n, k int, seed int64) []Range {
	return convertRanges(sse.RandomRanges(n, k, seed))
}

// ShortRanges samples k ranges of width at most maxWidth, modelling
// selective predicates.
func ShortRanges(n, k, maxWidth int, seed int64) []Range {
	return convertRanges(sse.ShortRanges(n, k, maxWidth, seed))
}

// PointQueries returns the n equality queries.
func PointQueries(n int) []Range {
	return convertRanges(sse.PointQueries(n))
}

func convertRanges(qs []sse.Range) []Range {
	out := make([]Range, len(qs))
	for i, q := range qs {
		out[i] = Range{A: q.A, B: q.B}
	}
	return out
}

// PaperCounts returns the paper's experimental dataset: 127 integer keys
// from randomly rounded Zipf(α=1.8) floats, deterministic.
func PaperCounts() []int64 {
	d, err := dataset.Zipf(dataset.DefaultPaper())
	if err != nil {
		panic(err) // the default configuration is always valid
	}
	return d.Counts
}

// ZipfCounts generates a Zipf distribution with random rounding, the
// paper's generator, with n values, tail exponent alpha, head frequency
// maxCount and a deterministic seed.
func ZipfCounts(n int, alpha, maxCount float64, seed int64) ([]int64, error) {
	d, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: alpha, MaxCount: maxCount, Seed: seed})
	if err != nil {
		return nil, err
	}
	return d.Counts, nil
}

// ReoptForWorkload re-optimizes the bucket values of an
// average-representation histogram for an explicit query workload instead
// of all ranges — the workload-adaptive variant of the paper's §5
// re-optimization. Buckets no query touches keep their original values.
func ReoptForWorkload(counts []int64, s Synopsis, queries []Range) (Synopsis, error) {
	avg, ok := s.(*histogram.Avg)
	if !ok {
		return nil, fmt.Errorf("rangeagg: workload reopt applies to average-representation histograms, not %s", s.Name())
	}
	tab := prefix.NewTable(counts)
	qs := make([]reopt.Range, len(queries))
	for i, q := range queries {
		qs[i] = reopt.Range{A: q.A, B: q.B}
	}
	return reopt.ReoptWorkload(tab, avg, qs)
}

// MergeSynopses combines two average-representation synopses built over
// the same domain from disjoint record sets (shards): the merged synopsis
// answers every range with exactly the sum of the two inputs' answers.
// The result has up to B₁+B₂−1 buckets; rebuild under a budget if space
// matters.
func MergeSynopses(a, b Synopsis) (Synopsis, error) {
	ha, ok := a.(*histogram.Avg)
	if !ok {
		return nil, fmt.Errorf("rangeagg: merge applies to average-representation histograms, not %s", a.Name())
	}
	hb, ok := b.(*histogram.Avg)
	if !ok {
		return nil, fmt.Errorf("rangeagg: merge applies to average-representation histograms, not %s", b.Name())
	}
	return histogram.MergeAvg(ha, hb)
}
