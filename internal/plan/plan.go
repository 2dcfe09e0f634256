// Package plan is the error-budget query planner: given a view of the
// synopses built over one metric (plus an exact fallback) it answers
// each range query by the cheapest path whose error bound meets the
// caller's budget — synopsis probe, escalation to a finer synopsis, or
// the exact prefix table — and attaches the bound it met to the answer.
// The per-range bounds come from the method layer's error models
// (method.ErrorModel). Every answer is computed afresh from the view it
// was asked against, so none can outlive its snapshot.
package plan

import (
	"errors"
	"fmt"
	"math"
	"sort"
	"time"

	"rangeagg/internal/method"
	"rangeagg/internal/obs"
)

// Path names how the planner produced an answer.
type Path int

const (
	// PathCache is never produced; it stays only because perfbench indexes its per-path counts by Path.
	PathCache Path = iota
	// PathProbe: the first (pinned or cheapest) synopsis met the budget.
	PathProbe
	// PathEscalate: a later, finer synopsis met the budget after earlier
	// ones failed it.
	PathEscalate
	// PathExact: no synopsis met the budget; the exact fallback answered.
	PathExact
)

var pathNames = [...]string{"cache", "probe", "escalate", "exact"}

func (p Path) String() string {
	if p < 0 || int(p) >= len(pathNames) {
		return fmt.Sprintf("Path(%d)", int(p))
	}
	return pathNames[p]
}

// ParsePath inverts String for the wire names; ok is false for unknown
// names (e.g. a newer server speaking a name this build predates).
func ParsePath(s string) (Path, bool) {
	for i, name := range pathNames {
		if name == s {
			return Path(i), true
		}
	}
	return 0, false
}

// ErrBudget reports an unmeetable budget: no synopsis bound was small
// enough and the view has no exact fallback.
var ErrBudget = errors.New("plan: no path meets the error budget")

// Source is one synopsis the planner can probe. Estimate answers the
// range; Bound returns the synopsis's error certificate for it (ok
// false when the synopsis carries no error model, in which case the
// planner treats the bound as +Inf).
type Source struct {
	// Name is the synopsis name reported in answers.
	Name string
	// Words is the synopsis's storage footprint; the planner probes
	// cheapest-first (the advisor's cost-sweep ordering).
	Words int
	// Estimate answers the range approximately.
	Estimate func(a, b int) float64
	// Bound returns the error certificate for the range.
	Bound func(a, b int) (bound float64, rigorous bool, ok bool)
}

// NewSource makes the probe source of a synopsis: est answers, and em,
// the error model built with it, certifies. A nil em certifies no range.
func NewSource(name string, est method.Estimator, em method.ErrorModel) Source {
	src := Source{Name: name, Words: est.StorageWords(), Estimate: est.Estimate,
		Bound: func(int, int) (float64, bool, bool) { return 0, false, false }}
	if em != nil {
		src.Bound = func(a, b int) (float64, bool, bool) { return em.Bound(a, b), em.Rigorous(), true }
	}
	return src
}

// View is the planner's read-only picture of one metric at one snapshot
// version: the synopses to probe (cheapest-first) and the exact
// fallback.
type View struct {
	// Domain is the attribute-domain size; queries are clamped to it.
	Domain int
	// Sources are the probe candidates, cheapest-first (see OrderSources).
	Sources []Source
	// Exact answers the range exactly (bound 0); nil when unavailable.
	Exact func(a, b int) float64
}

// SourceIndex resolves a source name to its probe position, or -1.
func (v *View) SourceIndex(name string) int {
	for i := range v.Sources {
		if v.Sources[i].Name == name {
			return i
		}
	}
	return -1
}

// OrderSources sorts sources into probe order: ascending storage words
// (cheapest probe first), name as the deterministic tiebreak. This is
// the same cost axis the advisor's budget sweep walks.
func OrderSources(sources []Source) {
	sort.Slice(sources, func(i, j int) bool {
		if sources[i].Words != sources[j].Words {
			return sources[i].Words < sources[j].Words
		}
		return sources[i].Name < sources[j].Name
	})
}

// Answer is a planned query result: the value, the error certificate it
// carries, and the path that produced it.
type Answer struct {
	// Value is the (possibly approximate) answer.
	Value float64
	// Bound bounds |exact − Value|; 0 on the exact path, +Inf when the
	// answering synopsis has no error model.
	Bound float64
	// Rigorous reports whether Bound is a guarantee.
	Rigorous bool
	// Path is how the planner got here.
	Path Path
	// Source is the synopsis that answered ("exact" on the exact path).
	Source string
}

// Planner routes queries through the cheapest path meeting each one's
// error budget. The zero Planner is not usable; use New.
type Planner struct {
	probes  *obs.Counter
	answers [len(pathNames)]*obs.Counter // nil at PathCache
	latency [len(pathNames)]*obs.Histogram
}

// New builds a planner; its argument is ignored and stays only because perfbench passes a cache size.
func New(int) *Planner {
	p := &Planner{probes: obs.Default.Counter("rangeagg_plan_probes_total")}
	for i := PathProbe; i <= PathExact; i++ {
		p.answers[i] = obs.Default.Counter("rangeagg_plan_answers_total", obs.L("path", i.String())...)
		p.latency[i] = obs.Default.Histogram("rangeagg_plan_answer_seconds", obs.L("path", i.String())...)
	}
	return p
}

// CacheStats is what Planner.CacheStats reports; it stays only because perfbench reads it.
type CacheStats struct {
	Hits, Misses int64
}

// CacheStats reports zero; it stays only because perfbench reads it.
func (p *Planner) CacheStats() CacheStats { return CacheStats{} }

// Tally is one caller's planner work: answers per path and synopsis
// probes, counted without shared state. A batch answers its ranges
// into a Tally and adds it to the planner's counters once (Planner.Add)
// instead of once per answer.
type Tally struct {
	answers [len(pathNames)]int64
	probes  int64
}

// Query answers [a,b] from v by the cheapest path whose bound is within
// maxErr, counts its work and times it per path
// (rangeagg_plan_answer_seconds). pinned names the synopsis to start
// probing at ("" = the view's cheapest); on a budget miss the planner
// escalates through the finer sources and finally the exact fallback.
// maxErr semantics: NaN means no budget (the pinned/cheapest synopsis
// always answers); negative budgets clamp to 0 (only the exact path, or
// a synopsis with a zero bound, can meet them).
func (p *Planner) Query(v *View, pinned string, a, b int, maxErr float64) (Answer, error) {
	start := time.Now()
	var t Tally
	ans, err := p.Answer(v, pinned, a, b, maxErr, &t)
	if err == nil {
		p.latency[ans.Path].Since(start)
	}
	p.Add(&t)
	return ans, err
}

// Answer answers like Query, but counts its work in t and is not timed:
// the caller adds t with Add and times its batch as a whole.
func (p *Planner) Answer(v *View, pinned string, a, b int, maxErr float64, t *Tally) (Answer, error) {
	ans, err := p.query(v, pinned, a, b, maxErr, t)
	if err == nil {
		t.answers[ans.Path]++
	}
	return ans, err
}

// Add adds t to the planner's counters and clears it.
func (p *Planner) Add(t *Tally) {
	for i, n := range t.answers {
		if n != 0 {
			p.answers[i].Add(n)
		}
	}
	if t.probes != 0 {
		p.probes.Add(t.probes)
	}
	*t = Tally{}
}

func (p *Planner) query(v *View, pinned string, a, b int, maxErr float64, t *Tally) (Answer, error) {
	first := 0
	if pinned != "" {
		if first = v.SourceIndex(pinned); first < 0 {
			return Answer{}, fmt.Errorf("plan: view has no source named %q", pinned)
		}
	}
	a, b, ok := clamp(a, b, v.Domain)
	if !ok {
		// Outside the domain the answer 0 is exact regardless of path.
		return Answer{Value: 0, Bound: 0, Rigorous: true, Path: PathExact, Source: "exact"}, nil
	}
	noBudget := math.IsNaN(maxErr)
	if maxErr < 0 {
		maxErr = 0
	}
	for i := first; i < len(v.Sources); i++ {
		src := &v.Sources[i]
		t.probes++
		bound, rigorous, ok := src.Bound(a, b)
		if !ok {
			bound, rigorous = math.Inf(1), false
		}
		if noBudget || bound <= maxErr {
			path := PathProbe
			if i > first {
				path = PathEscalate
			}
			return Answer{Value: src.Estimate(a, b), Bound: bound, Rigorous: rigorous,
				Path: path, Source: src.Name}, nil
		}
	}
	if v.Exact == nil {
		// A budget no synopsis meets (or an empty source list) and
		// nothing exact to fall back on.
		return Answer{}, ErrBudget
	}
	return Answer{Value: v.Exact(a, b), Bound: 0, Rigorous: true, Path: PathExact, Source: "exact"}, nil
}

// clamp intersects [a,b] with [0,domain); ok is false when the
// intersection is empty.
func clamp(a, b, domain int) (int, int, bool) {
	if a < 0 {
		a = 0
	}
	if b >= domain {
		b = domain - 1
	}
	return a, b, a <= b && domain > 0
}
