package plan

import "math"

// This file is the cross-node composition algebra the cluster router
// builds on. A range split across disjoint domain windows composes
// exactly: COUNT and SUM are cum-diffs, so the merged value is the sum
// of the per-window values, and |exact − Σvalues| ≤ Σ per-window bounds
// by the triangle inequality. The helpers keep that reasoning in one
// audited place instead of scattered through the router.

// SplitBudget divides one error budget across windows proportionally to
// their weights (typically the window widths), appending one part per
// weight to dst, so one slice can serve many splits: part i is
// maxErr·wᵢ/Σw, so the parts sum back to maxErr and MergeAnswers of
// per-window answers each meeting its part meets the whole budget.
// Conventions follow Planner.Query: NaN means "no budget" and propagates
// to every part; a negative budget clamps to 0; zero (or all-zero)
// weights fall back to an even split so no window is handed an
// impossible 0-of-nothing share.
func SplitBudget(dst []float64, maxErr float64, weights []int) []float64 {
	if math.IsNaN(maxErr) {
		for range weights {
			dst = append(dst, math.NaN())
		}
		return dst
	}
	if maxErr < 0 {
		maxErr = 0
	}
	var total float64
	for _, w := range weights {
		if w > 0 {
			total += float64(w)
		}
	}
	for _, w := range weights {
		part := 0.0
		if total <= 0 {
			part = maxErr / float64(len(weights))
		} else if w > 0 {
			part = maxErr * float64(w) / total
		}
		dst = append(dst, part)
	}
	return dst
}

// MergeAnswers composes per-window answers over disjoint windows into
// one: values and bounds add (an unbounded part makes the merged bound
// +Inf), the merge is rigorous only when every part is, and the merged
// Path is the most expensive path any part took (the bound, not the
// path, is what certifies the merged answer). Merging no
// answers yields the exact zero — the same convention Planner.Query uses
// for a fully-clamped range.
func MergeAnswers(parts ...Answer) Answer {
	merged := Answer{Bound: 0, Rigorous: true, Path: PathProbe, Source: "merged"}
	if len(parts) == 0 {
		return Answer{Value: 0, Bound: 0, Rigorous: true, Path: PathExact, Source: "merged"}
	}
	for _, p := range parts {
		merged.Value += p.Value
		merged.Bound += p.Bound
		merged.Rigorous = merged.Rigorous && p.Rigorous
		if p.Path > merged.Path {
			merged.Path = p.Path
		}
	}
	if math.IsInf(merged.Bound, 1) || math.IsNaN(merged.Bound) {
		merged.Bound, merged.Rigorous = math.Inf(1), false
	}
	return merged
}
