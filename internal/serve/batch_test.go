package serve

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
)

// planCounts reads the process-wide planner series a batch and a single
// query both add to.
func planCounts() map[string]int64 {
	out := map[string]int64{
		"hits":   obs.Default.Counter("rangeagg_plan_cache_hits_total").Value(),
		"misses": obs.Default.Counter("rangeagg_plan_cache_misses_total").Value(),
		"probes": obs.Default.Counter("rangeagg_plan_probes_total").Value(),
	}
	for _, p := range []plan.Path{plan.PathCache, plan.PathProbe, plan.PathEscalate, plan.PathExact} {
		labels := obs.L("path", p.String())
		out["answers."+p.String()] = obs.Default.Counter("rangeagg_plan_answers_total", labels...).Value()
		out["timed."+p.String()] = obs.Default.Histogram("rangeagg_plan_answer_seconds", labels...).Count()
	}
	return out
}

func countsSince(before map[string]int64) map[string]int64 {
	out := planCounts()
	for k := range out {
		out[k] -= before[k]
	}
	return out
}

// TestBatchTallyMatchesSingles pins the batch bookkeeping: on two
// identical servers, one QueryBatch adds exactly the per-path answer
// counts, cache hits and misses, and probes that the same queries add
// through QueryOne, to the process-wide series and to each planner's
// own counters. Only the single queries are timed per answer. The
// batch is large enough to fan out over the pool, and its ranges are
// distinct, so the cache counts do not depend on the order the chunks
// run in; the second pass answers from the cache.
func TestBatchTallyMatchesSingles(t *testing.T) {
	const n = 256
	rng := rand.New(rand.NewSource(7))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(rng.Intn(50))
	}
	specs := []engine.SynopsisSpec{
		{Name: "coarse", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 8}},
		{Name: "fine", Metric: engine.Count, Options: build.Options{Method: build.SAP0, BudgetWords: 48}},
		{Name: "s", Metric: engine.Sum, Options: build.Options{Method: build.SAP0, BudgetWords: 24}},
	}
	newServer := func() *Server {
		eng, err := engine.New("tally", n)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		s, err := New(eng, specs, Config{})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(s.Close)
		return s
	}
	batch, single := newServer(), newServer()

	seen := make(map[[2]int]bool)
	var qs []Query
	for len(qs) < 300 {
		a := rng.Intn(n)
		b := a + rng.Intn(n-a)
		if seen[[2]int{a, b}] {
			continue
		}
		seen[[2]int{a, b}] = true
		q := Query{A: a, B: b}
		budget := []float64{0, 5, 50, 500, 1e9}[rng.Intn(5)]
		switch rng.Intn(6) {
		case 0: // exact fast path: no synopsis, no budget
		case 1:
			q.Synopsis = "fine"
		case 2:
			q.Synopsis, q.MaxErr = "coarse", &budget
		case 3:
			q.Metric, q.MaxErr = engine.Sum, &budget
		default:
			q.MaxErr = &budget
		}
		qs = append(qs, q)
	}
	qs = append(qs, Query{Synopsis: "nope", A: 1, B: 2}, Query{A: n + 5, B: n + 9, MaxErr: new(float64)})

	for pass := 0; pass < 2; pass++ {
		before := planCounts()
		results, _ := batch.QueryBatch(qs)
		fromBatch := countsSince(before)
		before = planCounts()
		for i, q := range qs {
			res, _ := single.QueryOne(q)
			if res.Value != results[i].Value || res.Path != results[i].Path || (res.Err == nil) != (results[i].Err == nil) {
				t.Fatalf("pass %d, %+v: batch answered %+v, single %+v", pass, q, results[i], res)
			}
		}
		fromSingles := countsSince(before)

		answered := int64(0)
		for _, p := range []plan.Path{plan.PathCache, plan.PathProbe, plan.PathEscalate, plan.PathExact} {
			key := p.String()
			answered += fromSingles["answers."+key]
			if fromBatch["timed."+key] != 0 {
				t.Errorf("pass %d: the batch timed %d %s answers one by one", pass, fromBatch["timed."+key], key)
			}
			if fromSingles["timed."+key] != fromSingles["answers."+key] {
				t.Errorf("pass %d: %d single %s answers, %d timed", pass, fromSingles["answers."+key], key, fromSingles["timed."+key])
			}
			delete(fromBatch, "timed."+key)
			delete(fromSingles, "timed."+key)
		}
		for k, want := range fromSingles {
			if fromBatch[k] != want {
				t.Errorf("pass %d: %s: batch added %d, single queries %d", pass, k, fromBatch[k], want)
			}
		}
		if bs, ss := batch.CacheStats(), single.CacheStats(); bs != ss {
			t.Errorf("pass %d: cache stats: batch %+v, single %+v", pass, bs, ss)
		}
		if bp, sp := batch.planner.Probes(), single.planner.Probes(); bp != sp {
			t.Errorf("pass %d: probes: batch %d, single %d", pass, bp, sp)
		}
		// The queries must reach every path, or the comparison proves little.
		paths := []string{"probe", "escalate", "exact"}
		if pass == 1 {
			paths = []string{"cache"}
		}
		for _, p := range paths {
			if fromSingles["answers."+p] == 0 {
				t.Errorf("pass %d: no query took the %s path (%v)", pass, p, fromSingles)
			}
		}
		if answered == 0 || fromSingles["probes"] == 0 && pass == 0 {
			t.Fatalf("pass %d: nothing counted: %v", pass, fromSingles)
		}
	}
}

// TestHandlerBatchBodyBound pins the /query/batch body bound: a body of
// MaxBatchBody bytes is served, one byte more is refused with 413 and
// an ErrorBody.
func TestHandlerBatchBodyBound(t *testing.T) {
	_, _, ts := newTestHandler(t)
	body := `{"synopsis":"h","ranges":[[1,2]]}`
	pad := strings.Repeat(" ", MaxBatchBody-len(body))
	postJSONRaw(t, ts.URL+"/query/batch", body+pad, 200)
	raw := postJSONRaw(t, ts.URL+"/query/batch", body+pad+" ", 413)
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
}
