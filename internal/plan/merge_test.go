package plan

import (
	"math"
	"testing"
)

func TestSplitBudgetProportional(t *testing.T) {
	parts := SplitBudget(nil, 10, []int{512, 256, 256})
	want := []float64{5, 2.5, 2.5}
	var sum float64
	for i, p := range parts {
		if math.Abs(p-want[i]) > 1e-12 {
			t.Fatalf("part %d = %g, want %g", i, p, want[i])
		}
		sum += p
	}
	if math.Abs(sum-10) > 1e-9 {
		t.Fatalf("parts sum to %g, want the whole budget 10", sum)
	}
}

func TestSplitBudgetConventions(t *testing.T) {
	for _, p := range SplitBudget(nil, math.NaN(), []int{1, 2}) {
		if !math.IsNaN(p) {
			t.Fatalf("NaN (no budget) must propagate to every part, got %g", p)
		}
	}
	for _, p := range SplitBudget(nil, -3, []int{1, 2}) {
		if p != 0 {
			t.Fatalf("negative budgets clamp to 0, got %g", p)
		}
	}
	// All-zero weights: even split, not division by zero.
	parts := SplitBudget(nil, 4, []int{0, 0})
	for _, p := range parts {
		if p != 2 {
			t.Fatalf("zero-weight fallback: got %g, want 2", p)
		}
	}
	// A zero weight among positive ones gets nothing.
	parts = SplitBudget(nil, 6, []int{0, 3})
	if parts[0] != 0 || parts[1] != 6 {
		t.Fatalf("got %v, want [0 6]", parts)
	}
	if got := SplitBudget(nil, 1, nil); len(got) != 0 {
		t.Fatalf("empty weights: got %v", got)
	}
}

func TestMergeAnswersComposition(t *testing.T) {
	m := MergeAnswers(
		Answer{Value: 3, Bound: 0.5, Rigorous: true, Path: PathProbe},
		Answer{Value: 4, Bound: 0, Rigorous: true, Path: PathExact},
	)
	if m.Value != 7 || m.Bound != 0.5 || !m.Rigorous {
		t.Fatalf("merged = %+v", m)
	}
	if m.Path != PathExact {
		t.Fatalf("merged path = %v, want the most expensive part path", m.Path)
	}

	// One unbounded part poisons the merged bound, not the value.
	m = MergeAnswers(
		Answer{Value: 1, Bound: 0.1, Rigorous: true, Path: PathProbe},
		Answer{Value: 2, Bound: math.Inf(1), Rigorous: false, Path: PathProbe},
	)
	if m.Value != 3 || !math.IsInf(m.Bound, 1) || m.Rigorous {
		t.Fatalf("merged = %+v", m)
	}

	// A non-rigorous part makes the merge non-rigorous even with finite bounds.
	m = MergeAnswers(
		Answer{Value: 1, Bound: 1, Rigorous: true, Path: PathProbe},
		Answer{Value: 1, Bound: 1, Rigorous: false, Path: PathProbe},
	)
	if m.Rigorous || m.Bound != 2 {
		t.Fatalf("merged = %+v", m)
	}

	// Zero parts: the exact zero (fully-clamped range convention).
	m = MergeAnswers()
	if m.Value != 0 || m.Bound != 0 || !m.Rigorous || m.Path != PathExact {
		t.Fatalf("empty merge = %+v", m)
	}
}

// TestMergeMeetsSplitBudget pins the contract the router relies on: when
// every per-window answer meets its SplitBudget share, the merged bound
// meets the whole budget.
func TestMergeMeetsSplitBudget(t *testing.T) {
	budget := 7.5
	weights := []int{100, 50, 25}
	parts := SplitBudget(nil, budget, weights)
	answers := make([]Answer, len(parts))
	for i, p := range parts {
		answers[i] = Answer{Value: 1, Bound: p * 0.99, Rigorous: true, Path: PathEscalate}
	}
	m := MergeAnswers(answers...)
	if m.Bound > budget {
		t.Fatalf("merged bound %g exceeds budget %g", m.Bound, budget)
	}
	if !m.Rigorous {
		t.Fatal("merge of rigorous parts must stay rigorous")
	}
}
