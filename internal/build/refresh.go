package build

import (
	"time"

	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
)

// reusedTotal counts whole synopses a Refresh carried over unchanged.
var reusedTotal = obs.Default.Counter("rangeagg_synopsis_reused_total")

// DefaultApproxCutover is the domain size at and above which a full
// refresh substitutes a method's (1+ε)-approximate counterpart for its
// exact construction: below it the quadratic DPs finish in milliseconds
// and optimality is free; above it the near-linear builder is the only
// interactive option.
const DefaultApproxCutover = 32768

// WithApprox returns the options a full refresh constructs with for a
// domain of the given size: when the domain is at or above the cutover
// and the method has a registered approximate counterpart, the
// counterpart is substituted (with a defaulted Epsilon if the caller
// did not pin one). cutover 0 selects DefaultApproxCutover; a negative
// cutover disables substitution. Explicit coarsen-lift scaling
// (CoarsenTo) wins over substitution — the caller already chose a
// scaling path.
func WithApprox(opt Options, domain, cutover int) Options {
	if cutover == 0 {
		cutover = DefaultApproxCutover
	}
	if cutover < 0 || domain < cutover || opt.CoarsenTo > 0 {
		return opt
	}
	d, err := method.Lookup(opt.Method)
	if err != nil || d.ApproxCounterpart == 0 || opt.Method == d.ApproxCounterpart {
		return opt
	}
	opt.Method = d.ApproxCounterpart
	if opt.Epsilon <= 0 || opt.Epsilon >= 1 {
		opt.Epsilon = 0.1
	}
	return opt
}

// Window accumulates the value range mutated since a synopsis was last
// built. The engine keeps one per consumer and marks every window on
// each mutation; a build captures-and-resets its window under the same
// lock as the counts it builds from, so a window always describes
// exactly the mutations those counts contain.
type Window struct {
	any, all bool
	lo, hi   int
}

// Mark widens w to cover a mutation of the inclusive value span [lo,hi]
// of a domain of n values. A span covering the whole domain marks
// everything: nothing is left for a partial rebuild or maintenance to
// save, so the next refresh builds in full.
func (w *Window) Mark(lo, hi, n int) {
	w.Merge(Window{any: true, all: lo <= 0 && hi >= n-1, lo: lo, hi: hi})
}

// MarkAll marks every value: the next refresh builds in full.
func (w *Window) MarkAll() { w.any, w.all = true, true }

// Merge widens w to cover o — also how a build that captured o and
// failed hands its mutations back.
func (w *Window) Merge(o Window) {
	switch {
	case !o.any || w.all:
	case o.all:
		w.MarkAll()
	case !w.any:
		*w = o
	default:
		w.lo, w.hi = min(w.lo, o.lo), max(w.hi, o.hi)
	}
}

// Prev is the synopsis a Refresh may start from: an estimator built
// with the same metric and options, and the data version it was built
// at.
type Prev struct {
	Est     Estimator
	Version int64
}

// Rung names the step of the refresh ladder a Refresh took.
type Rung int

const (
	// Full built from scratch (WithApprox).
	Full Rung = iota
	// Reuse returned the previous estimator unchanged.
	Reuse
	// Maintain absorbed the window in place (ingest.Maintain).
	Maintain
	// Partial rebuilt only what the window touches (the method's
	// Rebuild hook).
	Partial
)

// Step reports what a Refresh did.
type Step struct {
	Rung Rung
	// Ingest is the maintenance outcome when the maintain rung ran. An
	// Escalate outcome means the refresh fell through to Partial or Full.
	Ingest *ingest.Outcome
	// Rebuild counts the segments the partial rung rebuilt and reused.
	Rebuild method.RebuildStats
}

// Refresh brings a synopsis up to date with series, the data at
// version, on the cheapest rung of the refresh ladder:
//
//  1. reuse — win is empty and prev was built at version: prev.Est is
//     returned and the caller carries its error model over;
//  2. maintain — win is partial, st is non-nil and prev is maintainable
//     (ingest.CanMaintain): ingest.Maintain absorbs the window in place.
//     On Escalate the ladder falls through, and st is Reset once the
//     rebuild below succeeds;
//  3. partial — win is partial and the method has a Rebuild hook: only
//     the structures the window touches are rebuilt;
//  4. full — Build, substituting the approximate counterpart at or above
//     cutover (WithApprox).
//
// prev is nil unless it was built with the same metric and options as
// opt; win must cover every mutation between prev's data and series.
// This is the one place either layer decides how to refresh a synopsis:
// the engine calls it per BuildSynopsis, the serving layer per spec of
// each snapshot.
func Refresh(series []int64, version int64, opt Options, prev *Prev, win Window, st *ingest.State, cutover int) (Estimator, Step, error) {
	var step Step
	partial := prev != nil && win.any && !win.all
	switch {
	case prev != nil && !win.any && prev.Version == version:
		reusedTotal.Inc()
		return prev.Est, Step{Rung: Reuse}, nil
	case partial && st != nil && ingest.CanMaintain(prev.Est):
		est, out, err := ingest.Maintain(series, prev.Est, win.lo, win.hi, st)
		step.Ingest = &out
		if err != nil || out.Action != ingest.Escalate {
			step.Rung = Maintain
			return est, step, err
		}
	}
	var est Estimator
	var err error
	// An unknown method has no hook; Build below reports it.
	d, _ := method.Lookup(opt.Method)
	if partial && d.Rebuild != nil {
		step.Rung = Partial
		start := time.Now()
		est, step.Rebuild, err = d.Rebuild(series, prev.Est, win.lo, win.hi, opt.methodOpts())
		phaseSeconds(d.Name, "rebuild").Since(start)
	} else {
		est, err = Build(series, WithApprox(opt, len(series), cutover))
	}
	if err == nil && step.Ingest != nil {
		// Maintenance restarts from the rebuilt synopsis.
		st.Reset()
	}
	return est, step, err
}
