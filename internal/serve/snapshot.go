package serve

import (
	"sort"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
)

// Synopsis is one published estimator inside a snapshot, together with
// the spec it was built from.
type Synopsis struct {
	engine.SynopsisSpec
	// Est is the immutable estimator.
	Est build.Estimator
	// ErrModel is the per-range error model built against the snapshot's
	// data, or nil when the method has none (WAVE-AA2D).
	ErrModel method.ErrorModel

	// ingest is the synopsis's maintenance state (Config.Ingest
	// incremental): created by the first publish that refreshes a
	// maintainable estimator, then handed forward to the next snapshot's
	// synopsis of the same spec. Pinned queries feed its drift trigger.
	ingest *ingest.State
}

// Snapshot is one immutable, internally consistent view of a column: the
// exact prefix tables and every published synopsis, all derived from the
// same data version. Queries read a snapshot through an atomic pointer and
// never see state from two versions at once; rebuilds construct a fresh
// snapshot off the hot path and swap it in whole. The published snapshot
// is also the node's synopsis registry: its synopses, in registration
// order, are the specs the next rebuild refreshes.
type Snapshot struct {
	// Version is the engine data version the snapshot was built from.
	Version int64
	// Domain is the attribute domain size.
	Domain int
	// Records is the total number of records at Version.
	Records int64

	count *prefix.Table // exact COUNT path
	sum   *prefix.Table // exact SUM path
	syns  []*Synopsis   // in registration order

	// epoch is the publish sequence number /healthz reports. It is NOT
	// Version: spec changes and forced rebuilds publish new snapshots
	// over the same engine data.
	epoch int64
	// views are the planner's per-metric pictures of the snapshot
	// (indexed by engine.Count/engine.Sum), built once at publish time.
	views [2]*plan.View
}

// ExactCount answers COUNT(*) WHERE a ≤ attr ≤ b from the snapshot. The
// range is clamped to the domain; a fully-outside range counts zero.
func (s *Snapshot) ExactCount(a, b int) int64 { return s.exact(engine.Count, a, b) }

// ExactSum answers SUM(attr) WHERE a ≤ attr ≤ b from the snapshot.
func (s *Snapshot) ExactSum(a, b int) int64 { return s.exact(engine.Sum, a, b) }

func (s *Snapshot) exact(m engine.Metric, a, b int) int64 {
	a, b, ok := clamp(a, b, s.Domain)
	if !ok {
		return 0
	}
	if m == engine.Sum {
		return s.sum.Sum(a, b)
	}
	return s.count.Sum(a, b)
}

// Approx answers a range aggregate from a named synopsis in the snapshot;
// the range is clamped to the domain.
func (s *Snapshot) Approx(name string, a, b int) (float64, error) {
	syn, err := s.Synopsis(name)
	if err != nil {
		return 0, err
	}
	a, b, ok := clamp(a, b, s.Domain)
	if !ok {
		return 0, nil
	}
	return syn.Est.Estimate(a, b), nil
}

// Synopsis returns a published synopsis by name.
func (s *Snapshot) Synopsis(name string) (*Synopsis, error) {
	if syn := s.find(name); syn != nil {
		return syn, nil
	}
	return nil, &engine.UnknownSynopsisError{Scope: "serve", Name: name}
}

// find returns the published synopsis named name, or nil (also on the
// nil snapshot a server has before its first publish).
func (s *Snapshot) find(name string) *Synopsis {
	if s == nil {
		return nil
	}
	for _, syn := range s.syns {
		if syn.Name == name {
			return syn
		}
	}
	return nil
}

// specs lists the published synopses' specs in registration order.
func (s *Snapshot) specs() []engine.SynopsisSpec {
	out := make([]engine.SynopsisSpec, len(s.syns))
	for i, syn := range s.syns {
		out[i] = syn.SynopsisSpec
	}
	return out
}

// View returns the planner's picture of one metric at this snapshot:
// every synopsis of the metric as a probe source (cheapest-first) plus
// the exact prefix table as the fallback.
func (s *Snapshot) View(m engine.Metric) *plan.View {
	return s.views[m]
}

// buildViews derives the per-metric planner views; called once per
// publish, after the prefix tables and synopses are in place.
func (s *Snapshot) buildViews() {
	for _, m := range [2]engine.Metric{engine.Count, engine.Sum} {
		tab := s.count
		if m == engine.Sum {
			tab = s.sum
		}
		v := &plan.View{
			Domain: s.Domain,
			Exact:  func(a, b int) float64 { return float64(tab.Sum(a, b)) },
		}
		for _, syn := range s.syns {
			if syn.Metric != m {
				continue
			}
			v.Sources = append(v.Sources, plan.NewSource(syn.Name, syn.Est, syn.ErrModel))
		}
		plan.OrderSources(v.Sources)
		s.views[m] = v
	}
}

// Names lists the published synopsis names, sorted.
func (s *Snapshot) Names() []string {
	out := make([]string, len(s.syns))
	for i, syn := range s.syns {
		out[i] = syn.Name
	}
	sort.Strings(out)
	return out
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
