// Package engine is the approximate-query-processing substrate the paper
// assumes around its algorithms: an in-memory single-column store that
// ingests records, maintains the attribute-value distribution, builds and
// serves named synopses under word budgets, and answers exact and
// approximate COUNT and SUM range queries with per-synopsis staleness and
// error accounting.
package engine

import (
	"context"
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"

	"rangeagg/internal/build"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
	"rangeagg/internal/sse"
)

// Metric selects what a synopsis summarizes.
type Metric int

const (
	// Count summarizes the number of records per attribute value; range
	// queries are COUNT(*) WHERE attr BETWEEN a AND b.
	Count Metric = iota
	// Sum summarizes Σ attr per value (value × frequency); range queries
	// are SUM(attr) WHERE attr BETWEEN a AND b.
	Sum
)

// String names the metric.
func (m Metric) String() string {
	if m == Sum {
		return "SUM"
	}
	return "COUNT"
}

// ParseMetric resolves a metric from its name (case-insensitive).
func ParseMetric(s string) (Metric, error) {
	switch strings.ToUpper(s) {
	case "COUNT", "":
		return Count, nil
	case "SUM":
		return Sum, nil
	}
	return 0, &UnknownMetricError{Scope: "engine", Name: s}
}

// Engine is a single-column store over the integer domain [0, domain).
type Engine struct {
	mu      sync.RWMutex
	name    string
	domain  int
	counts  []int64
	records int64
	sum     int64 // Σ value·count, the SUM total
	version int64 // bumped on every mutation

	// autoRefresh, when positive, rebuilds a synopsis before answering if
	// more than this many mutations happened since it was built.
	autoRefresh int64

	// approxCutover configures build.WithApprox substitution for full
	// builds (0 = default, negative = disabled).
	approxCutover int

	synopses map[string]*Synopsis
	// watches are the consumers' windows (Watch): one per registered
	// synopsis, plus those of serving layers.
	watches map[*Watch]struct{}
	// refreshing holds the refresh lock of every name a BuildSynopsis is
	// refreshing or waiting to refresh.
	refreshing map[string]*nameLock
}

// nameLock serializes the refreshes of one synopsis name. refs counts
// the refreshes holding or waiting for it, so the entry goes with the
// last of them; it is guarded by Engine.mu.
type nameLock struct {
	sync.Mutex
	refs int
}

// Synopsis is a built summary registered under a name.
type Synopsis struct {
	Name string
	// Metric the synopsis answers.
	Metric Metric
	// Options used to build it.
	Options build.Options
	// Est is the underlying estimator.
	Est build.Estimator
	// ErrModel bounds the estimator's per-range error against the data it
	// was built from (nil when the method has no error model). Bounds
	// refer to the data at Version; staleness widens them unaccounted.
	ErrModel method.ErrorModel
	// Version of the engine data when built; staleness is the number of
	// mutations since. The synopsis is current exactly when Version is
	// the engine's version (InstallSynopsis keeps a stale restored
	// estimator one behind).
	Version int64
	// watch holds the mutations since the data Est summarizes; the
	// registry registers it while the synopsis is registered.
	watch *Watch
}

// New creates an engine for attribute values in [0, domain).
func New(name string, domain int) (*Engine, error) {
	if domain <= 0 {
		return nil, fmt.Errorf("engine: domain must be positive, got %d", domain)
	}
	return &Engine{
		name:       name,
		domain:     domain,
		counts:     make([]int64, domain),
		synopses:   make(map[string]*Synopsis),
		watches:    make(map[*Watch]struct{}),
		refreshing: make(map[string]*nameLock),
	}, nil
}

// MaxTotal bounds an engine's record total and its SUM total
// (Σ value·count) at 2^53. Every exact answer is then an integer that a
// float64 holds exactly, which the router's exact merge and ingest's
// bit-exact absorb rely on.
const MaxTotal = 1 << 53

// addTotals returns the record and SUM totals after adding c ≥ 0 records
// at value v, or an OverflowError if either would pass MaxTotal. Both
// totals are at most MaxTotal on entry, so nothing overflows int64.
func addTotals(records, sum int64, v int, c int64) (int64, int64, error) {
	if c > MaxTotal-records {
		return records, sum, &OverflowError{Total: "record"}
	}
	if v > 0 && c > (MaxTotal-sum)/int64(v) {
		return records, sum, &OverflowError{Total: "SUM"}
	}
	return records + c, sum + int64(v)*c, nil
}

// Load bulk-inserts a whole distribution (counts per value). It checks
// every entry before it applies any, so a refused load changes nothing.
func (e *Engine) Load(counts []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(counts) != e.domain {
		return fmt.Errorf("engine: load of %d values into domain %d", len(counts), e.domain)
	}
	// Track the span of loaded mass so the dirty windows stay precise: a
	// load confined to a value window keeps partial rebuilds and
	// incremental maintenance partial (one spanning the whole domain
	// marks everything; see build.Window.Mark).
	lo, hi := -1, -1
	records, sum := e.records, e.sum
	for v, c := range counts {
		if c < 0 {
			return fmt.Errorf("engine: negative count %d at value %d", c, v)
		}
		var err error
		if records, sum, err = addTotals(records, sum, v, c); err != nil {
			return err
		}
		if c > 0 {
			if lo < 0 {
				lo = v
			}
			hi = v
		}
	}
	for v, c := range counts {
		e.counts[v] += c
	}
	e.records, e.sum = records, sum
	// An all-zero load mutates nothing: the version (the staleness clock)
	// stays put and no window dirties.
	if lo >= 0 {
		e.version++
		e.markDirty(lo, hi)
	}
	return nil
}

// Replace overwrites the whole distribution with counts — unlike Load,
// which adds on top of the existing data. It is the replication install
// path: a replica receiving a primary's checkpoint swaps its state for
// the checkpoint's counts wholesale, so its exact tables and synopses
// converge to the primary's after the next rebuild.
func (e *Engine) Replace(counts []int64) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if len(counts) != e.domain {
		return fmt.Errorf("engine: replace of %d values into domain %d", len(counts), e.domain)
	}
	var records, sum int64
	for v, c := range counts {
		if c < 0 {
			return fmt.Errorf("engine: negative count %d at value %d", c, v)
		}
		var err error
		if records, sum, err = addTotals(records, sum, v, c); err != nil {
			return err
		}
	}
	copy(e.counts, counts)
	e.records, e.sum = records, sum
	e.version++
	e.markDirty(0, e.domain-1)
	return nil
}

// Insert adds occurrences records with the given attribute value.
func (e *Engine) Insert(value int, occurrences int64) error {
	if occurrences <= 0 {
		return fmt.Errorf("engine: occurrences must be positive, got %d", occurrences)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if value < 0 || value >= e.domain {
		return fmt.Errorf("engine: value %d outside domain [0,%d)", value, e.domain)
	}
	records, sum, err := addTotals(e.records, e.sum, value, occurrences)
	if err != nil {
		return err
	}
	e.counts[value] += occurrences
	e.records, e.sum = records, sum
	e.version++
	e.markDirty(value, value)
	return nil
}

// Delete removes occurrences records with the given attribute value.
func (e *Engine) Delete(value int, occurrences int64) error {
	if occurrences <= 0 {
		return fmt.Errorf("engine: occurrences must be positive, got %d", occurrences)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	if value < 0 || value >= e.domain {
		return fmt.Errorf("engine: value %d outside domain [0,%d)", value, e.domain)
	}
	if e.counts[value] < occurrences {
		return fmt.Errorf("engine: cannot delete %d of value %d (only %d present)",
			occurrences, value, e.counts[value])
	}
	e.counts[value] -= occurrences
	e.records -= occurrences
	e.sum -= int64(value) * occurrences
	e.version++
	e.markDirty(value, value)
	return nil
}

// Name returns the engine's name.
func (e *Engine) Name() string { return e.name }

// Domain returns the attribute domain size.
func (e *Engine) Domain() int { return e.domain }

// Records returns the total number of records.
func (e *Engine) Records() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.records
}

// Counts returns a copy of the current distribution.
func (e *Engine) Counts() []int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]int64, len(e.counts))
	copy(out, e.counts)
	return out
}

// Version returns the data version, bumped on every mutation.
func (e *Engine) Version() int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version
}

// metricCounts returns a copy of the per-value series a synopsis of the
// metric summarizes. Callers hold the lock.
func (e *Engine) metricCounts(m Metric) []int64 {
	if m == Sum {
		return series(Sum, e.counts)
	}
	return append([]int64(nil), e.counts...)
}

// series derives the per-value series a synopsis of the metric
// summarizes from a COUNT series: the counts themselves for Count,
// value×frequency (a new slice) for Sum.
func series(m Metric, counts []int64) []int64 {
	if m != Sum {
		return counts
	}
	out := make([]int64, len(counts))
	for v, c := range counts {
		out[v] = int64(v) * c
	}
	return out
}

// ExactCount answers COUNT(*) WHERE a ≤ attr ≤ b exactly. The range is
// clamped to the domain; an inverted or fully-outside range counts zero.
func (e *Engine) ExactCount(a, b int) int64 {
	return e.exact(Count, a, b)
}

// ExactSum answers SUM(attr) WHERE a ≤ attr ≤ b exactly.
func (e *Engine) ExactSum(a, b int) int64 {
	return e.exact(Sum, a, b)
}

func (e *Engine) exact(m Metric, a, b int) int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	a, b, ok := clamp(a, b, e.domain)
	if !ok {
		return 0
	}
	var s int64
	for v := a; v <= b; v++ {
		if m == Sum {
			s += int64(v) * e.counts[v]
		} else {
			s += e.counts[v]
		}
	}
	return s
}

func clamp(a, b, domain int) (int, int, bool) {
	if a < 0 {
		a = 0
	}
	if b >= domain {
		b = domain - 1
	}
	if a > b {
		return 0, 0, false
	}
	return a, b, true
}

// BuildSynopsis constructs and registers a synopsis under the given name,
// replacing any previous one with that name. When the previous synopsis
// under the name has the same spec, the mutations its watch recorded
// since it was built decide how much work the refresh does
// (build.Refresh): none when nothing changed, a dirty-segment rebuild
// when they are confined to a value window and the method has a Rebuild
// hook, a full build otherwise. A new spec starts a fresh watch.
// Domains at or above the approx cutover construct full builds through
// the method's (1+ε)-approximate counterpart while the registered
// options stay as given.
//
// Refreshes of one name run one at a time: each holds the name's lock
// from its capture to its registration, so a later refresh starts from
// the synopsis an earlier one registered and never registers one that
// lacks an earlier capture's mutations.
func (e *Engine) BuildSynopsis(name string, metric Metric, opt build.Options) (*Synopsis, error) {
	defer e.lockName(name)()
	for {
		e.mu.Lock()
		old := e.synopses[name]
		var prev *build.Prev
		var w *Watch
		if old != nil && old.Metric == metric && old.Options == opt {
			prev, w = &build.Prev{Est: old.Est, Version: old.Version}, old.watch
		} else {
			w = e.watch()
		}
		c := w.capture()
		e.mu.Unlock()
		if refreshCaptured != nil {
			refreshCaptured()
		}

		counts := series(metric, c.Counts)
		est, step, err := build.Refresh(counts, c.Version, opt, prev, c.Window, nil, c.Cutover)
		if err == nil && step.Rung == build.Reuse {
			return old, nil
		}
		var em method.ErrorModel
		if err != nil {
			err = fmt.Errorf("engine: building synopsis %q: %w", name, err)
		} else if em, err = method.ModelFor(opt.Method, prefix.NewTable(counts), est); err != nil {
			err = fmt.Errorf("engine: error model for %q: %w", name, err)
		}
		e.mu.Lock()
		if err == nil && e.synopses[name] == old {
			s := &Synopsis{Name: name, Metric: metric, Options: opt, Est: est, ErrModel: em, Version: c.Version, watch: w}
			e.register(s)
			e.mu.Unlock()
			return s, nil
		}
		// The build failed, or a drop, install or shard absorption
		// replaced the synopsis it started from. Either way no registered
		// synopsis holds the captured mutations, so they go back to the
		// watch (a fresh watch goes away); after a replacement the
		// refresh starts over from the new registration.
		if prev != nil {
			w.restore(c)
		} else {
			delete(e.watches, w)
		}
		e.mu.Unlock()
		if err != nil {
			return nil, err
		}
	}
}

// lockName takes name's refresh lock and returns its release.
func (e *Engine) lockName(name string) (unlock func()) {
	e.mu.Lock()
	l := e.refreshing[name]
	if l == nil {
		l = &nameLock{}
		e.refreshing[name] = l
	}
	l.refs++
	e.mu.Unlock()
	l.Lock()
	return func() {
		l.Unlock()
		e.mu.Lock()
		if l.refs--; l.refs == 0 {
			delete(e.refreshing, name)
		}
		e.mu.Unlock()
	}
}

// refreshCaptured, when a test sets it, runs in BuildSynopsis between
// the capture and the build, with the name's refresh lock held.
var refreshCaptured func()

// register installs s under its name, unregistering the watch of the
// synopsis it replaces unless s carries that watch on. Callers hold
// e.mu.
func (e *Engine) register(s *Synopsis) {
	if old := e.synopses[s.Name]; old != nil && old.watch != s.watch {
		delete(e.watches, old.watch)
	}
	e.synopses[s.Name] = s
}

// SynopsisSpec names one synopsis a serving layer publishes.
type SynopsisSpec struct {
	Name    string
	Metric  Metric
	Options build.Options
}

// MergeFrom absorbs a shard engine built over the same domain: the
// shard's records are added to this engine's distribution and the named
// synopsis is merged through the method registry's Merge hook, so the
// merged estimator answers every range with exactly the sum of the two
// inputs' answers (the Mergeable capability; average-representation
// histograms built unrounded). If this engine has no synopsis under the
// name yet, the shard's is adopted as-is. The shard is read once at the
// start (a point-in-time merge); the absorption is a mutation, so this
// engine's other synopses become stale.
func (e *Engine) MergeFrom(other *Engine, name string) (*Synopsis, error) {
	if other == nil || other == e {
		return nil, fmt.Errorf("engine: merge requires a distinct source engine")
	}
	if other.Domain() != e.domain {
		return nil, fmt.Errorf("engine: cannot merge domain %d into domain %d", other.Domain(), e.domain)
	}
	other.mu.RLock()
	shardCounts := make([]int64, len(other.counts))
	copy(shardCounts, other.counts)
	o, ok := other.synopses[name]
	other.mu.RUnlock()
	if !ok {
		return nil, &UnknownSynopsisError{Scope: "engine: source engine", Name: name}
	}
	return e.AbsorbShard(name, shardCounts, o.Metric, o.Options, o.Est)
}

// AbsorbShard is the replayable core of MergeFrom: it adds a shard's
// per-value counts to this engine's distribution and merges the shard's
// estimator into the registered synopsis of the same name (adopting it
// under the given metric and options when none is registered). The
// method — and, when present, the local synopsis's method — must have
// the Mergeable capability. The durability layer logs exactly these
// arguments, so replaying the record reproduces the absorption.
func (e *Engine) AbsorbShard(name string, shardCounts []int64, metric Metric, opts build.Options, est build.Estimator) (*Synopsis, error) {
	_, span := obs.Start(context.Background(), "engine.absorb_shard")
	span.SetAttr("synopsis", name)
	defer span.End()
	if est == nil {
		return nil, fmt.Errorf("engine: absorbing %q: nil shard estimator", name)
	}
	if len(shardCounts) != e.domain {
		return nil, fmt.Errorf("engine: cannot merge domain %d into domain %d", len(shardCounts), e.domain)
	}
	for v, c := range shardCounts {
		if c < 0 {
			return nil, fmt.Errorf("engine: absorbing %q: negative shard count at value %d", name, v)
		}
	}
	d, err := method.Lookup(opts.Method)
	if err != nil {
		return nil, fmt.Errorf("engine: merging %q: %w", name, err)
	}
	if !d.Caps.Has(method.Mergeable) {
		return nil, fmt.Errorf("engine: %s synopses are not mergeable", d.Name)
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	records, sum := e.records, e.sum
	for v, c := range shardCounts {
		if records, sum, err = addTotals(records, sum, v, c); err != nil {
			return nil, err
		}
	}
	if mine, ok := e.synopses[name]; ok {
		if mine.Metric != metric {
			return nil, fmt.Errorf("engine: synopsis %q answers %s here but %s in the source",
				name, mine.Metric, metric)
		}
		dm, err := method.Lookup(mine.Options.Method)
		if err != nil {
			return nil, fmt.Errorf("engine: merging %q: %w", name, err)
		}
		if !dm.Caps.Has(method.Mergeable) {
			return nil, fmt.Errorf("engine: %s synopses are not mergeable", dm.Name)
		}
		merged, err := dm.Merge(mine.Est, est)
		if err != nil {
			return nil, fmt.Errorf("engine: merging %q: %w", name, err)
		}
		est, opts = merged, mine.Options
	}
	for v, c := range shardCounts {
		e.counts[v] += c
	}
	e.records, e.sum = records, sum
	e.version++
	e.markDirty(0, e.domain-1)
	// The merged estimator now summarizes the union distribution, so its
	// error model is rebuilt against the post-merge data. A model failure
	// is not fatal: the absorption (a logged, replayable mutation) already
	// happened, so the synopsis just serves without bounds.
	em, _ := method.ModelFor(opts.Method, prefix.NewTable(e.metricCounts(metric)), est)
	// The merged estimator reflects the post-merge distribution exactly,
	// so its watch starts clean (every other watch was marked fully
	// dirty by the absorption above).
	s := &Synopsis{Name: name, Metric: metric, Options: opts, Est: est, ErrModel: em, Version: e.version, watch: e.watch()}
	e.register(s)
	return s, nil
}

// InstallSynopsis registers a pre-built estimator under the given name
// at the current data version, replacing any previous one. It is the
// recovery path's way to restore checkpointed synopses bit-identically
// instead of rebuilding them; the estimator must span the engine's
// domain. fresh says the estimator summarizes exactly the current data,
// so its next refresh may reuse it or rebuild only what later mutations
// touch. Otherwise it summarizes some earlier data: it is registered one
// version behind the engine, so it never counts as current (Stale, the
// reuse rung, a checkpoint's fresh flag), and its watch starts fully
// dirty, so its next refresh builds in full.
func (e *Engine) InstallSynopsis(name string, metric Metric, opts build.Options, est build.Estimator, fresh bool) *Synopsis {
	e.mu.Lock()
	defer e.mu.Unlock()
	// Recovered estimators get their error model rebuilt against the
	// recovered data; a failure leaves the synopsis serving unbounded.
	em, _ := method.ModelFor(opts.Method, prefix.NewTable(e.metricCounts(metric)), est)
	s := &Synopsis{Name: name, Metric: metric, Options: opts, Est: est, ErrModel: em, Version: e.version, watch: e.watch()}
	if !fresh {
		s.Version--
		s.watch.win.MarkAll()
	}
	e.register(s)
	return s
}

// DropSynopsis removes a named synopsis; it reports whether it existed.
func (e *Engine) DropSynopsis(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.synopses[name]
	if ok {
		delete(e.watches, s.watch)
		delete(e.synopses, name)
	}
	return ok
}

// Synopsis returns a registered synopsis by name.
func (e *Engine) Synopsis(name string) (*Synopsis, error) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s, ok := e.synopses[name]
	if !ok {
		return nil, &UnknownSynopsisError{Scope: "engine", Name: name}
	}
	return s, nil
}

// Synopses lists the registered synopses sorted by name.
func (e *Engine) Synopses() []*Synopsis {
	e.mu.RLock()
	defer e.mu.RUnlock()
	out := make([]*Synopsis, 0, len(e.synopses))
	for _, s := range e.synopses {
		out = append(out, s)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// Stale reports how many mutations have happened since the synopsis was
// built (at least one for an estimator installed not fresh).
func (e *Engine) Stale(s *Synopsis) int64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.version - s.Version
}

// SetAutoRefresh enables the maintenance policy: a synopsis more than
// threshold mutations stale is rebuilt synchronously before answering.
// threshold ≤ 0 disables the policy (the default).
func (e *Engine) SetAutoRefresh(threshold int64) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.autoRefresh = threshold
}

// current returns a named synopsis, first rebuilding it when the
// auto-refresh maintenance policy is enabled and it is more than the
// threshold stale.
func (e *Engine) current(name string) (*Synopsis, error) {
	s, err := e.Synopsis(name)
	if err != nil {
		return nil, err
	}
	e.mu.RLock()
	stale := e.autoRefresh > 0 && e.version-s.Version > e.autoRefresh
	e.mu.RUnlock()
	if stale {
		// Rebuild from current data; concurrent refreshes of the same
		// synopsis run one at a time, and a later one reuses an earlier
		// one's build when nothing changed in between.
		if s, err = e.BuildSynopsis(s.Name, s.Metric, s.Options); err != nil {
			return nil, fmt.Errorf("engine: auto-refresh of %q: %w", name, err)
		}
	}
	return s, nil
}

// Approx answers a range query from a named synopsis, applying the
// auto-refresh maintenance policy if enabled. The range is clamped; a
// fully-outside range returns 0.
func (e *Engine) Approx(name string, a, b int) (float64, error) {
	s, err := e.current(name)
	if err != nil {
		return 0, err
	}
	a, b, ok := clamp(a, b, e.domain)
	if !ok {
		return 0, nil
	}
	return s.Est.Estimate(a, b), nil
}

// ApproxAnswer is an approximate answer together with its error
// certificate: a bound on |exact − Value|. Rigorous reports whether the
// bound is a guarantee from the synopsis's error model; when the
// synopsis carries no model the bound is +Inf and Rigorous is false.
type ApproxAnswer struct {
	Value    float64
	ErrBound float64
	Rigorous bool
}

// ApproxWithError answers a range query like Approx and attaches the
// synopsis's per-range error bound. A fully-outside range returns the
// exact answer 0 with a zero bound.
func (e *Engine) ApproxWithError(name string, a, b int) (ApproxAnswer, error) {
	s, err := e.current(name)
	if err != nil {
		return ApproxAnswer{}, err
	}
	a, b, ok := clamp(a, b, e.domain)
	if !ok {
		return ApproxAnswer{Value: 0, ErrBound: 0, Rigorous: true}, nil
	}
	ans := ApproxAnswer{Value: s.Est.Estimate(a, b), ErrBound: math.Inf(1)}
	if s.ErrModel != nil {
		ans.ErrBound = s.ErrModel.Bound(a, b)
		ans.Rigorous = s.ErrModel.Rigorous()
	}
	return ans, nil
}

// ApproxBatch answers a batch of range queries from one named synopsis,
// resolving the synopsis and the maintenance policy once for the whole
// batch and fanning the evaluation out over the shared worker pool. Every
// answer comes from the same estimator, so the batch is internally
// consistent even if a concurrent rebuild replaces the synopsis mid-way.
func (e *Engine) ApproxBatch(name string, queries []sse.Range) ([]float64, error) {
	s, err := e.current(name)
	if err != nil {
		return nil, err
	}
	est, domain := s.Est, e.domain
	out := make([]float64, len(queries))
	parallel.ForEachChunk(len(queries), 64, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a, b, ok := clamp(queries[i].A, queries[i].B, domain)
			if !ok {
				continue
			}
			out[i] = est.Estimate(a, b)
		}
	})
	return out, nil
}

// Refresh refreshes a registered synopsis with its original spec
// (BuildSynopsis): it is kept as is when nothing changed since it was
// built.
func (e *Engine) Refresh(name string) (*Synopsis, error) {
	s, err := e.Synopsis(name)
	if err != nil {
		return nil, err
	}
	return e.BuildSynopsis(s.Name, s.Metric, s.Options)
}

// Report aggregates a synopsis's error over a workload of ranges against
// the current exact data.
func (e *Engine) Report(name string, queries []sse.Range) (sse.Metrics, error) {
	s, err := e.Synopsis(name)
	if err != nil {
		return sse.Metrics{}, err
	}
	e.mu.RLock()
	tab := prefix.NewTable(e.metricCounts(s.Metric))
	e.mu.RUnlock()
	return sse.Evaluate(tab, s.Est, queries), nil
}

// SSE returns the exact sum-squared error of a synopsis over all ranges
// of the current data.
func (e *Engine) SSE(name string) (float64, error) {
	s, err := e.Synopsis(name)
	if err != nil {
		return 0, err
	}
	e.mu.RLock()
	tab := prefix.NewTable(e.metricCounts(s.Metric))
	e.mu.RUnlock()
	return sse.Of(tab, s.Est), nil
}

// ProgressiveStep is one state of an online-refined answer.
type ProgressiveStep struct {
	// Scanned is how many values of the range have been read exactly.
	Scanned int
	// Of is the range width.
	Of int
	// Estimate is the blended answer at this point: exact mass over the
	// scanned prefix plus the synopsis estimate of the rest.
	Estimate float64
}

// Progressive answers a COUNT or SUM range query in the online-aggregation
// style the paper's introduction motivates: the first step is the pure
// synopsis estimate, each later step replaces more of it with exactly
// scanned data, and the final step is exact. It returns one step per
// chunk (at most chunks+1 and at least 2 for a non-empty range).
func (e *Engine) Progressive(name string, a, b, chunks int) ([]ProgressiveStep, error) {
	s, err := e.Synopsis(name)
	if err != nil {
		return nil, err
	}
	if chunks <= 0 {
		chunks = 10
	}
	a, b, ok := clamp(a, b, e.domain)
	if !ok {
		return []ProgressiveStep{{Scanned: 0, Of: 0, Estimate: 0}}, nil
	}
	e.mu.RLock()
	counts := e.metricCounts(s.Metric)
	e.mu.RUnlock()

	width := b - a + 1
	// A chunk count at or above the width already reads one value per
	// chunk; clamping it keeps the sizes below from overflowing.
	chunks = min(chunks, width)
	chunk := (width + chunks - 1) / chunks
	steps := make([]ProgressiveStep, 0, chunks+1)
	steps = append(steps, ProgressiveStep{Scanned: 0, Of: width, Estimate: s.Est.Estimate(a, b)})
	var exact float64
	pos := a
	for pos <= b {
		end := pos + chunk - 1
		if end > b {
			end = b
		}
		for i := pos; i <= end; i++ {
			exact += float64(counts[i])
		}
		est := exact
		if end < b {
			est += s.Est.Estimate(end+1, b)
		}
		steps = append(steps, ProgressiveStep{Scanned: end - a + 1, Of: width, Estimate: est})
		pos = end + 1
	}
	return steps, nil
}
