package rangeagg

import (
	"rangeagg/internal/engine"
	"rangeagg/internal/sse"
)

// Metric selects what an engine synopsis summarizes.
type Metric int

const (
	// Count answers COUNT(*) WHERE a ≤ attr ≤ b.
	Count Metric = iota
	// Sum answers SUM(attr) WHERE a ≤ attr ≤ b.
	Sum
)

// String names the metric.
func (m Metric) String() string { return engine.Metric(m).String() }

// Engine is an in-memory single-column store that maintains the
// attribute-value distribution of ingested records and serves exact and
// approximate range aggregates through named synopses — the
// selectivity-estimation substrate the paper assumes. It is safe for
// concurrent use.
type Engine struct {
	reader
}

// reader is the read side Engine and Durable share: the queries and
// descriptions of one internal engine, each failing an unknown
// synopsis name with *UnknownSynopsisError.
type reader struct {
	inner *engine.Engine
}

// NewEngine creates an engine for attribute values in [0, domain).
func NewEngine(name string, domain int) (*Engine, error) {
	e, err := engine.New(name, domain)
	if err != nil {
		return nil, err
	}
	return &Engine{reader{e}}, nil
}

// Load bulk-inserts counts per attribute value; len(counts) must equal the
// domain size.
func (e *Engine) Load(counts []int64) error { return e.inner.Load(counts) }

// Insert adds occurrences records with the given attribute value.
func (e *Engine) Insert(value int, occurrences int64) error {
	return e.inner.Insert(value, occurrences)
}

// Delete removes occurrences records with the given attribute value.
func (e *Engine) Delete(value int, occurrences int64) error {
	return e.inner.Delete(value, occurrences)
}

// Domain returns the attribute domain size.
func (e *reader) Domain() int { return e.inner.Domain() }

// Records returns the total number of records.
func (e *reader) Records() int64 { return e.inner.Records() }

// Counts returns a copy of the current distribution.
func (e *reader) Counts() []int64 { return e.inner.Counts() }

// ExactCount answers COUNT(*) WHERE a ≤ attr ≤ b exactly, with the range
// clamped to the domain.
func (e *reader) ExactCount(a, b int) int64 { return e.inner.ExactCount(a, b) }

// ExactSum answers SUM(attr) WHERE a ≤ attr ≤ b exactly.
func (e *reader) ExactSum(a, b int) int64 { return e.inner.ExactSum(a, b) }

// BuildSynopsis constructs and registers a synopsis under the given
// name, replacing any existing one. Rebuilding an unchanged spec on
// unchanged data keeps the registered synopsis.
func (e *Engine) BuildSynopsis(name string, metric Metric, opt Options) error {
	bo, err := opt.toBuild()
	if err != nil {
		return err
	}
	_, err = e.inner.BuildSynopsis(name, engine.Metric(metric), bo)
	return err
}

// DropSynopsis removes a named synopsis, reporting whether it existed.
func (e *Engine) DropSynopsis(name string) bool { return e.inner.DropSynopsis(name) }

// SynopsisNames lists the registered synopsis names, sorted.
func (e *reader) SynopsisNames() []string {
	list := e.inner.Synopses()
	out := make([]string, len(list))
	for i, s := range list {
		out[i] = s.Name
	}
	return out
}

// SynopsisInfo describes a registered synopsis.
type SynopsisInfo struct {
	// Name is the registration name.
	Name string
	// Method is the construction's paper name.
	Method string
	// Metric the synopsis answers.
	Metric Metric
	// StorageWords is the summary's space.
	StorageWords int
	// Stale counts data mutations since the synopsis was built.
	Stale int64
	// Capabilities are the method's registered capability flags, e.g.
	// "mergeable", "serializable".
	Capabilities []string
}

// Describe reports metadata for a registered synopsis.
func (e *reader) Describe(name string) (SynopsisInfo, error) {
	s, err := e.inner.Synopsis(name)
	if err != nil {
		return SynopsisInfo{}, wrapEngineErr(err)
	}
	return SynopsisInfo{
		Name:         s.Name,
		Method:       s.Est.Name(),
		Metric:       Metric(s.Metric),
		StorageWords: s.Est.StorageWords(),
		Stale:        e.inner.Stale(s),
		Capabilities: Method(s.Options.Method).Capabilities(),
	}, nil
}

// MergeFrom absorbs a shard engine built over the same domain: the
// shard's records are added to this engine's distribution and its named
// synopsis is merged into this engine's (adopted if absent), so exact
// queries and the merged synopsis both cover the union of the two record
// sets afterwards, and the synopsis answers every range with exactly the
// sum of the shards' answers. The method must have the "mergeable"
// capability — the average-representation histogram family.
func (e *Engine) MergeFrom(other *Engine, name string) error {
	_, err := e.inner.MergeFrom(other.inner, name)
	return wrapEngineErr(err)
}

// Approx answers a range aggregate from a named synopsis; the range is
// clamped to the domain. An unknown name yields *UnknownSynopsisError.
func (e *reader) Approx(name string, a, b int) (float64, error) {
	v, err := e.inner.Approx(name, a, b)
	return v, wrapEngineErr(err)
}

// ApproxAnswer is an approximate answer together with its error
// certificate: ErrBound bounds |exact − Value|. Rigorous reports
// whether the bound is a guarantee from the synopsis's error model;
// when the method has no model the bound is +Inf and Rigorous is false.
type ApproxAnswer struct {
	Value    float64
	ErrBound float64
	Rigorous bool
}

// ApproxWithError answers a range aggregate like Approx and attaches
// the synopsis's per-range error bound, computed at build time against
// the data the synopsis summarized. A fully-outside range returns the
// exact answer 0 with a zero bound.
func (e *reader) ApproxWithError(name string, a, b int) (ApproxAnswer, error) {
	ans, err := e.inner.ApproxWithError(name, a, b)
	if err != nil {
		return ApproxAnswer{}, wrapEngineErr(err)
	}
	return ApproxAnswer{Value: ans.Value, ErrBound: ans.ErrBound, Rigorous: ans.Rigorous}, nil
}

// ApproxBatch answers a batch of range aggregates from one named synopsis.
// The synopsis is resolved once for the whole batch and the evaluation
// fans out over the shared worker pool, so large batches cost far less
// than per-query calls; every answer comes from the same estimator even
// if the synopsis is rebuilt concurrently. Ranges are clamped to the
// domain.
func (e *reader) ApproxBatch(name string, queries []Range) ([]float64, error) {
	qs := make([]sse.Range, len(queries))
	for i, q := range queries {
		qs[i] = sse.Range{A: q.A, B: q.B}
	}
	vs, err := e.inner.ApproxBatch(name, qs)
	return vs, wrapEngineErr(err)
}

// Refresh brings a registered synopsis up to date with the current
// data, keeping it as is when nothing changed since it was built.
func (e *Engine) Refresh(name string) error {
	_, err := e.inner.Refresh(name)
	return wrapEngineErr(err)
}

// Report evaluates a synopsis's error over a workload against the current
// exact data.
func (e *reader) Report(name string, queries []Range) (Metrics, error) {
	qs := make([]sse.Range, len(queries))
	for i, q := range queries {
		qs[i] = sse.Range{A: q.A, B: q.B}
	}
	m, err := e.inner.Report(name, qs)
	if err != nil {
		return Metrics{}, wrapEngineErr(err)
	}
	return Metrics{Queries: m.Queries, SSE: m.SSE, MAE: m.MAE,
		MaxAbs: m.MaxAbs, RMS: m.RMS, MeanRel: m.MeanRel}, nil
}

// SynopsisSSE returns the exact SSE of a registered synopsis over all
// ranges of the current data.
func (e *reader) SynopsisSSE(name string) (float64, error) {
	v, err := e.inner.SSE(name)
	return v, wrapEngineErr(err)
}

// SetAutoRefresh enables synopsis maintenance: any synopsis more than
// threshold mutations stale is rebuilt synchronously before answering a
// query. threshold ≤ 0 disables the policy (the default).
func (e *Engine) SetAutoRefresh(threshold int64) { e.inner.SetAutoRefresh(threshold) }

// ProgressiveStep is one state of an online-refined answer: Estimate
// blends exact mass over the scanned prefix of the range with the
// synopsis estimate of the remainder.
type ProgressiveStep struct {
	Scanned  int
	Of       int
	Estimate float64
}

// Progressive answers a range aggregate in the online-aggregation style:
// step 0 is the instant synopsis estimate, later steps refine it by exact
// scanning, and the final step is exact.
func (e *reader) Progressive(name string, a, b, chunks int) ([]ProgressiveStep, error) {
	steps, err := e.inner.Progressive(name, a, b, chunks)
	if err != nil {
		return nil, wrapEngineErr(err)
	}
	out := make([]ProgressiveStep, len(steps))
	for i, s := range steps {
		out[i] = ProgressiveStep{Scanned: s.Scanned, Of: s.Of, Estimate: s.Estimate}
	}
	return out, nil
}
