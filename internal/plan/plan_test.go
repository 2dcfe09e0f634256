package plan

import (
	"errors"
	"math"
	"testing"
)

// testView builds a two-source view: a coarse synopsis with a flat
// bound of 10 and a fine one with a flat bound of 1, over domain 100,
// with an exact fallback. Values are distinct per source so tests can
// tell who answered.
func testView() *View {
	v := &View{
		Domain: 100,
		Sources: []Source{
			{
				Name: "fine", Words: 64,
				Estimate: func(a, b int) float64 { return float64(b-a+1) + 0.5 },
				Bound:    func(a, b int) (float64, bool, bool) { return 1, true, true },
			},
			{
				Name: "coarse", Words: 8,
				Estimate: func(a, b int) float64 { return float64(b-a+1) + 5 },
				Bound:    func(a, b int) (float64, bool, bool) { return 10, true, true },
			},
		},
		Exact: func(a, b int) float64 { return float64(b - a + 1) },
	}
	OrderSources(v.Sources)
	return v
}

func TestOrderSources(t *testing.T) {
	v := testView()
	if v.Sources[0].Name != "coarse" || v.Sources[1].Name != "fine" {
		t.Fatalf("want coarse (8 words) before fine (64 words), got %q, %q",
			v.Sources[0].Name, v.Sources[1].Name)
	}
	ties := []Source{{Name: "b", Words: 4}, {Name: "a", Words: 4}}
	OrderSources(ties)
	if ties[0].Name != "a" {
		t.Fatalf("equal-words tiebreak should order by name, got %q first", ties[0].Name)
	}
}

func TestPlannerPaths(t *testing.T) {
	p := New(0)
	v := testView()
	noBudget := math.NaN()

	// No budget: the cheapest source answers, path probe.
	ans, err := p.Query(v, "", 10, 19, noBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "coarse" || ans.Path != PathProbe || ans.Bound != 10 {
		t.Fatalf("no-budget query: got %+v", ans)
	}

	// Budget 5: coarse (bound 10) fails, fine (bound 1) answers.
	ans, err = p.Query(v, "", 20, 29, 5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "fine" || ans.Path != PathEscalate || ans.Bound != 1 {
		t.Fatalf("budget-5 query should escalate to fine: got %+v", ans)
	}

	// Budget 0.5: nothing meets it, exact answers with bound 0.
	ans, err = p.Query(v, "", 20, 29, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Path != PathExact || ans.Bound != 0 || !ans.Rigorous || ans.Value != 10 {
		t.Fatalf("budget-0.5 query should fall through to exact: got %+v", ans)
	}

	// Pinning starts the probe order at the named source.
	ans, err = p.Query(v, "fine", 30, 39, noBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "fine" || ans.Path != PathProbe {
		t.Fatalf("pinned query: got %+v", ans)
	}

	// Negative budgets clamp to zero: only exact qualifies.
	ans, err = p.Query(v, "", 40, 49, -3)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Path != PathExact {
		t.Fatalf("negative budget should mean exact: got %+v", ans)
	}
}

func TestPlannerClampAndErrors(t *testing.T) {
	p := New(0)
	v := testView()

	// Fully outside the domain: exact zero.
	ans, err := p.Query(v, "", 200, 300, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 0 || ans.Bound != 0 || !ans.Rigorous {
		t.Fatalf("outside-domain query: got %+v", ans)
	}

	// Partially outside: clamped, then answered normally.
	ans, err = p.Query(v, "", -5, 9, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 15 { // coarse estimate of clamped [0,9]: 10 + 5
		t.Fatalf("clamped query: got %+v", ans)
	}

	if _, err := p.Query(v, "nope", 0, 9, math.NaN()); err == nil {
		t.Fatal("unknown pinned source should error")
	}

	// Unmeetable budget with no exact fallback.
	v.Exact = nil
	if _, err := p.Query(v, "", 0, 9, 0.5); !errors.Is(err, ErrBudget) {
		t.Fatalf("want ErrBudget, got %v", err)
	}
}

// TestPlannerSourceWithoutModel checks a model-less source is treated
// as bound +Inf: it answers only when no budget is set, and every
// budget skips past it.
func TestPlannerSourceWithoutModel(t *testing.T) {
	p := New(0)
	v := &View{
		Domain: 10,
		Sources: []Source{{
			Name: "nomodel", Words: 4,
			Estimate: func(a, b int) float64 { return 7 },
			Bound:    func(a, b int) (float64, bool, bool) { return 0, false, false },
		}},
		Exact: func(a, b int) float64 { return 5 },
	}
	ans, err := p.Query(v, "", 0, 9, math.NaN())
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "nomodel" || !math.IsInf(ans.Bound, 1) || ans.Rigorous {
		t.Fatalf("no-budget query on model-less source: got %+v", ans)
	}
	ans, err = p.Query(v, "", 0, 9, 1e18)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Path != PathExact {
		t.Fatalf("any finite budget should skip a model-less source: got %+v", ans)
	}
}

func TestPathString(t *testing.T) {
	want := map[Path]string{PathCache: "cache", PathProbe: "probe", PathEscalate: "escalate", PathExact: "exact"}
	for p, s := range want {
		if p.String() != s {
			t.Errorf("Path %d: got %q want %q", int(p), p.String(), s)
		}
	}
	if Path(99).String() != "Path(99)" {
		t.Errorf("out-of-range path: got %q", Path(99).String())
	}
}
