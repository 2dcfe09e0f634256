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
		"probes": obs.Default.Counter("rangeagg_plan_probes_total").Value(),
	}
	for _, p := range []plan.Path{plan.PathProbe, plan.PathEscalate, plan.PathExact} {
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
// counts and probes that the same queries add through QueryOne to the
// process-wide series. Only the single queries are timed per answer.
// The batch is large enough to fan out over the pool.
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

	before := planCounts()
	results, _ := batch.QueryBatch(qs)
	fromBatch := countsSince(before)
	before = planCounts()
	for i, q := range qs {
		res, _ := single.QueryOne(q)
		if res.Value != results[i].Value || res.Path != results[i].Path || (res.Err == nil) != (results[i].Err == nil) {
			t.Fatalf("%+v: batch answered %+v, single %+v", q, results[i], res)
		}
	}
	fromSingles := countsSince(before)

	for _, p := range []plan.Path{plan.PathProbe, plan.PathEscalate, plan.PathExact} {
		key := p.String()
		if fromBatch["timed."+key] != 0 {
			t.Errorf("the batch timed %d %s answers one by one", fromBatch["timed."+key], key)
		}
		if fromSingles["timed."+key] != fromSingles["answers."+key] {
			t.Errorf("%d single %s answers, %d timed", fromSingles["answers."+key], key, fromSingles["timed."+key])
		}
		// The queries must reach every path, or the comparison proves little.
		if fromSingles["answers."+key] == 0 {
			t.Errorf("no query took the %s path (%v)", key, fromSingles)
		}
		delete(fromBatch, "timed."+key)
		delete(fromSingles, "timed."+key)
	}
	for k, want := range fromSingles {
		if fromBatch[k] != want {
			t.Errorf("%s: batch added %d, single queries %d", k, fromBatch[k], want)
		}
	}
	if fromSingles["probes"] == 0 {
		t.Fatalf("nothing probed: %v", fromSingles)
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

// healthRecords republishes the node and returns the records its
// /health reports.
func healthRecords(t *testing.T, url string) float64 {
	t.Helper()
	postJSONRaw(t, url+"/rebuild", "", 200)
	return getJSON(t, url+"/health", 200)["records"].(float64)
}

// TestHandlerIngestBodyBound pins the /ingest body bound: a body of
// MaxBatchBody bytes is served, one byte more is refused with 413 and
// an ErrorBody, and the refused inserts are not applied.
func TestHandlerIngestBodyBound(t *testing.T) {
	_, _, ts := newTestHandler(t)
	before := healthRecords(t, ts.URL)
	body := `{"inserts":[{"value":3,"count":5}]}`
	pad := strings.Repeat(" ", MaxBatchBody-len(body))
	postJSONRaw(t, ts.URL+"/ingest", body+pad, 200)
	if got := healthRecords(t, ts.URL); got != before+5 {
		t.Fatalf("records %g after the largest accepted ingest, want %g", got, before+5)
	}
	raw := postJSONRaw(t, ts.URL+"/ingest", body+pad+" ", 413)
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
	if got := healthRecords(t, ts.URL); got != before+5 {
		t.Fatalf("records %g after a refused ingest, want %g", got, before+5)
	}
}

// TestHandlerLoadBodyBound pins the /load body bound the node derives
// from its domain: a body of MaxLoadBody(domain) bytes is served, one
// byte more is refused with 413 and an ErrorBody, and the refused
// counts are not loaded.
func TestHandlerLoadBodyBound(t *testing.T) {
	s, _, ts := newTestHandler(t)
	n := s.Snapshot().Domain
	load := func(count string, size int64) string {
		body := `{"counts":[` + strings.Repeat(count+",", n-1) + count + `]}`
		return body + strings.Repeat(" ", int(size)-len(body))
	}
	limit := MaxLoadBody(n)
	want := healthRecords(t, ts.URL) + float64(n) // a load adds its counts
	postJSONRaw(t, ts.URL+"/load", load("1", limit), 200)
	if got := healthRecords(t, ts.URL); got != want {
		t.Fatalf("records %g after the largest accepted load, want %g", got, want)
	}
	raw := postJSONRaw(t, ts.URL+"/load", load("2", limit+1), 413)
	var e ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
	if got := healthRecords(t, ts.URL); got != want {
		t.Fatalf("records %g after a refused load, want %g", got, want)
	}
}
