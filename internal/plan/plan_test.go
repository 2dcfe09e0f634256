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
func testView(version int64) *View {
	v := &View{
		Version: version,
		Metric:  "count",
		Domain:  100,
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
	v := testView(1)
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
	p := New(1024)
	v := testView(1)
	noBudget := math.NaN()

	// No budget: the cheapest source answers, path probe.
	ans, err := p.Query(v, "", 10, 19, noBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Source != "coarse" || ans.Path != PathProbe || ans.Bound != 10 {
		t.Fatalf("no-budget query: got %+v", ans)
	}

	// Same range again: served from cache.
	ans, err = p.Query(v, "", 10, 19, noBudget)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Path != PathCache || ans.Source != "coarse" {
		t.Fatalf("repeat query should hit cache: got %+v", ans)
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
	p := New(0) // cache disabled: nil *Cache must be safe
	v := testView(1)

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
	p := New(64)
	v := &View{
		Version: 1, Metric: "count", Domain: 10,
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

// get is one counted lookup, the way the planner tallies it.
func (c *Cache) get(k Key) (cached, bool) {
	v, ok := c.lookup(k)
	if ok {
		c.count(1, 0)
	} else {
		c.count(0, 1)
	}
	return v, ok
}

func TestCacheVersioning(t *testing.T) {
	c := NewCache(256)
	k1 := Key{Metric: "count", Source: "s", A: 0, B: 9, Version: 1}
	c.put(k1, cached{value: 42, bound: 1, rigorous: true})
	if _, ok := c.get(Key{Metric: "count", Source: "s", A: 0, B: 9, Version: 2}); ok {
		t.Fatal("a new snapshot version must never hit an old entry")
	}
	got, ok := c.get(k1)
	if !ok || got.value != 42 {
		t.Fatalf("same-version lookup: got %+v ok=%v", got, ok)
	}
	st := c.Stats()
	if st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats: got %+v", st)
	}
}

func TestCacheEviction(t *testing.T) {
	// 16 entries = 1 per shard: inserting two keys landing in the same
	// shard evicts the older.
	c := NewCache(16)
	var keys []Key
	// Find two keys on the same shard.
outer:
	for a := 0; a < 64; a++ {
		for b := a + 1; b < 64; b++ {
			k1 := Key{Metric: "m", Source: "s", A: a, B: a, Version: 1}
			k2 := Key{Metric: "m", Source: "s", A: b, B: b, Version: 1}
			if c.shard(k1) == c.shard(k2) {
				keys = []Key{k1, k2}
				break outer
			}
		}
	}
	if keys == nil {
		t.Fatal("no shard collision found in 64 keys")
	}
	c.put(keys[0], cached{value: 1})
	c.put(keys[1], cached{value: 2})
	if _, ok := c.get(keys[0]); ok {
		t.Fatal("older entry should have been evicted")
	}
	if got, ok := c.get(keys[1]); !ok || got.value != 2 {
		t.Fatalf("newest entry should survive: got %+v ok=%v", got, ok)
	}
}

func TestNilCacheSafe(t *testing.T) {
	var c *Cache
	if _, ok := c.get(Key{}); ok {
		t.Fatal("nil cache should never hit")
	}
	c.put(Key{}, cached{}) // must not panic
	if st := c.Stats(); st != (CacheStats{}) {
		t.Fatalf("nil cache stats: got %+v", st)
	}
	if c.Len() != 0 {
		t.Fatal("nil cache should be empty")
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

// TestModelLessSkipSavesProbes is the regression test for the escalation
// fix: a shard-folded (model-less) source used to be probed on every
// budgeted query — estimate evaluated, bound found +Inf, budget missed —
// before escalation moved on. The planner now skips such sources outright
// for finite budgets; the probe counter proves no work is spent on them.
func TestModelLessSkipSavesProbes(t *testing.T) {
	p := New(0) // no cache: every probe is counted
	v := &View{
		Version: 1, Metric: "count", Domain: 100,
		Sources: []Source{
			{
				Name: "folded", Words: 4, NoModel: true,
				Estimate: func(a, b int) float64 { return 7 },
				Bound:    func(a, b int) (float64, bool, bool) { return 0, false, false },
			},
			{
				Name: "modeled", Words: 64,
				Estimate: func(a, b int) float64 { return float64(b - a + 1) },
				Bound:    func(a, b int) (float64, bool, bool) { return 1, true, true },
			},
		},
		Exact: func(a, b int) float64 { return float64(b - a + 1) },
	}
	OrderSources(v.Sources)

	// Budgeted queries: the cheap model-less source is never probed; each
	// query costs exactly one probe (the modeled source answers).
	const queries = 10
	before := p.Probes()
	for i := 0; i < queries; i++ {
		ans, err := p.Query(v, "", i, i+5, 2)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Source != "modeled" {
			t.Fatalf("budgeted query answered by %q, want modeled", ans.Source)
		}
	}
	if got := p.Probes() - before; got != queries {
		t.Fatalf("%d budgeted queries cost %d probes, want %d (model-less source must not be probed)",
			queries, got, queries)
	}

	// No budget (NaN) and an infinite budget still answer from the
	// cheapest source, model or not.
	for _, budget := range []float64{math.NaN(), math.Inf(1)} {
		ans, err := p.Query(v, "", 0, 9, budget)
		if err != nil {
			t.Fatal(err)
		}
		if ans.Source != "folded" {
			t.Fatalf("budget %v: answered by %q, want the cheapest (model-less) source", budget, ans.Source)
		}
	}

	// A budget no modeled source meets falls through to exact without
	// wasting a probe on the model-less one.
	before = p.Probes()
	ans, err := p.Query(v, "", 0, 9, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Path != PathExact {
		t.Fatalf("unmeetable budget: got %+v, want exact fallback", ans)
	}
	if got := p.Probes() - before; got != 1 {
		t.Fatalf("unmeetable budget cost %d probes, want 1", got)
	}
}
