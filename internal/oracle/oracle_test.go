package oracle_test

import (
	"math"
	"math/rand"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/oracle"
	"rangeagg/internal/prefix"
	"rangeagg/internal/serve"
	"rangeagg/internal/sse"
)

// datasets returns the differential-test corpus: the paper's Zipf
// generator plus uniform and spiked distributions, all deterministic.
func datasets(t *testing.T, n int) map[string][]int64 {
	t.Helper()
	out := make(map[string][]int64)

	d, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: 1.8, MaxCount: 400, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	out["zipf"] = d.Counts

	rng := rand.New(rand.NewSource(11))
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = int64(rng.Intn(50))
	}
	out["uniform"] = uniform

	spiked := make([]int64, n)
	for i := 0; i < 4; i++ {
		spiked[rng.Intn(n)] = int64(1000 + rng.Intn(5000))
	}
	out["spiked"] = spiked

	return out
}

// families lists every estimator family the oracle grades, as named in
// the issue: the paper's histograms and both wavelet domains.
func families() map[string]build.Options {
	return map[string]build.Options{
		"OPT-A":     {Method: build.OptA, BudgetWords: 16, Seed: 1},
		"SAP0":      {Method: build.SAP0, BudgetWords: 18},
		"SAP1":      {Method: build.SAP1, BudgetWords: 20},
		"SAP2":      {Method: build.SAP2, BudgetWords: 28},
		"A0":        {Method: build.A0, BudgetWords: 16},
		"POINT-OPT": {Method: build.PointOpt, BudgetWords: 16},
		"TOPBB":     {Method: build.WaveTopBB, BudgetWords: 16},
		"RANGEOPT":  {Method: build.WaveRangeOpt, BudgetWords: 16},
	}
}

// TestFastSSEMatchesOracle checks internal/sse's accelerated evaluation
// (prefix-decomposition and the O(B) lemma forms) against the O(n²)
// definition for every estimator family on every dataset, to 1e-9
// relative.
func TestFastSSEMatchesOracle(t *testing.T) {
	const n = 48
	for dname, counts := range datasets(t, n) {
		tab := prefix.NewTable(counts)
		for fname, opt := range families() {
			est, err := build.Build(counts, opt)
			if err != nil {
				t.Fatalf("%s/%s: %v", dname, fname, err)
			}
			fast := sse.Of(tab, est)
			brute := oracle.SSE(counts, est)
			if tol := 1e-9 * (1 + math.Abs(brute)); math.Abs(fast-brute) > tol {
				t.Errorf("%s/%s: fast SSE %g, oracle %g (diff %g > tol %g)",
					dname, fname, fast, brute, math.Abs(fast-brute), tol)
			}
		}
	}
}

// TestEngineExactPathMatchesOracle checks the engine's exact COUNT and SUM
// answers — including clamping — against direct summation, exactly.
func TestEngineExactPathMatchesOracle(t *testing.T) {
	const n = 48
	for dname, counts := range datasets(t, n) {
		eng, err := engine.New(dname, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		sums := oracle.SumSeries(counts)
		for _, q := range [][2]int{{0, n - 1}, {0, 0}, {n - 1, n - 1}, {3, 17}, {-5, 12}, {40, n + 9}, {-3, n + 3}, {9, 2}} {
			if got, want := eng.ExactCount(q[0], q[1]), oracle.RangeSum(counts, q[0], q[1]); got != want {
				t.Errorf("%s: ExactCount(%d,%d) = %d, oracle %d", dname, q[0], q[1], got, want)
			}
			if got, want := eng.ExactSum(q[0], q[1]), oracle.RangeSum(sums, q[0], q[1]); got != want {
				t.Errorf("%s: ExactSum(%d,%d) = %d, oracle %d", dname, q[0], q[1], got, want)
			}
			if got := eng.ExactCount(q[0], q[1]); got < 0 {
				t.Errorf("%s: negative count %d", dname, got)
			}
		}
	}
}

// TestServingSnapshotMatchesOracle checks the serving layer's snapshot
// exact path and batched evaluation against the oracle and against the
// per-query estimates, on every dataset.
func TestServingSnapshotMatchesOracle(t *testing.T) {
	const n = 48
	for dname, counts := range datasets(t, n) {
		eng, err := engine.New(dname, n)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		specs := []engine.SynopsisSpec{
			{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.SAP0, BudgetWords: 18}},
		}
		srv, err := serve.New(eng, specs, serve.Config{})
		if err != nil {
			t.Fatal(err)
		}
		snap := srv.Snapshot()
		syn, err := snap.Synopsis("h")
		if err != nil {
			t.Fatal(err)
		}
		sums := oracle.SumSeries(counts)
		var qs []serve.Query
		// 150 queries: over the serving layer's fan-out threshold (128).
		for a := -2; a < n; a++ {
			qs = append(qs,
				serve.Query{A: a, B: a + 9, Metric: engine.Count},
				serve.Query{A: a, B: a + 9, Metric: engine.Sum},
				serve.Query{Synopsis: "h", A: a, B: a + 9})
		}
		results, _ := srv.QueryBatch(qs)
		for i, q := range qs {
			var want float64
			switch {
			case q.Synopsis != "":
				a, b := q.A, q.B
				if a < 0 {
					a = 0
				}
				if b >= n {
					b = n - 1
				}
				want = syn.Est.Estimate(a, b)
			case q.Metric == engine.Sum:
				want = float64(oracle.RangeSum(sums, q.A, q.B))
			default:
				want = float64(oracle.RangeSum(counts, q.A, q.B))
			}
			if results[i].Err != nil {
				t.Fatalf("%s: query %d: %v", dname, i, results[i].Err)
			}
			if results[i].Value != want {
				t.Errorf("%s: query %d (%+v) = %g, oracle %g", dname, i, q, results[i].Value, want)
			}
		}
		srv.Close()
	}
}

// TestEngineApproxBatchMatchesSingles checks the engine's batched approx
// path returns bit-identical answers to per-query Approx calls.
func TestEngineApproxBatchMatchesSingles(t *testing.T) {
	const n = 48
	counts := datasets(t, n)["zipf"]
	eng, err := engine.New("batch", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if _, err := eng.BuildSynopsis("h", engine.Count, build.Options{Method: build.SAP1, BudgetWords: 20}); err != nil {
		t.Fatal(err)
	}
	qs := sse.RandomRanges(n, 200, 3)
	batch, err := eng.ApproxBatch("h", qs)
	if err != nil {
		t.Fatal(err)
	}
	for i, q := range qs {
		single, err := eng.Approx("h", q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != single {
			t.Errorf("query %d: batch %g, single %g", i, batch[i], single)
		}
	}
	if _, err := eng.ApproxBatch("nope", qs); err == nil {
		t.Error("unknown synopsis accepted")
	}
}

// TestApproxSSEWithinEpsilonOfExact is the (1+ε) differential bound for
// the near-linear approximate constructions: on every dataset shape and
// every swept ε, the approximate family's brute-force SSE must stay
// within (1+ε) of its exact DP counterpart's. The full n-grid runs
// without -short; short mode keeps the smallest size. The bound is
// rigorous on the construction objective (which for SAP0 *is* the range
// SSE, by the decomposition lemma); for A0 and POINT-OPT the objective is
// a surrogate, and this test is what enforces that the (1+ε) slack
// carries over to the real metric.
func TestApproxSSEWithinEpsilonOfExact(t *testing.T) {
	sizes := []int{64, 256, 512}
	if testing.Short() {
		sizes = sizes[:1]
	}
	pairs := []struct {
		name          string
		exact, approx build.Method
		budget        int
	}{
		{"SAP0", build.SAP0, build.SAP0Approx, 24},
		{"A0", build.A0, build.A0Approx, 16},
		{"POINT-OPT", build.PointOpt, build.PointOptApprox, 16},
	}
	for _, n := range sizes {
		for dname, counts := range datasets(t, n) {
			for _, p := range pairs {
				exact, err := build.Build(counts, build.Options{Method: p.exact, BudgetWords: p.budget, Seed: 1})
				if err != nil {
					t.Fatalf("n=%d %s/%s: %v", n, dname, p.name, err)
				}
				exactSSE := oracle.SSE(counts, exact)
				for _, eps := range []float64{0.05, 0.1, 0.25} {
					approx, err := build.Build(counts, build.Options{
						Method: p.approx, BudgetWords: p.budget, Seed: 1, Epsilon: eps,
					})
					if err != nil {
						t.Fatalf("n=%d %s/%s ε=%g: %v", n, dname, p.name, eps, err)
					}
					approxSSE := oracle.SSE(counts, approx)
					if approxSSE > (1+eps)*exactSSE*(1+1e-9)+1e-9 {
						t.Errorf("n=%d %s/%s ε=%g: approx SSE %g > (1+ε)·exact %g",
							n, dname, p.name, eps, approxSSE, (1+eps)*exactSSE)
					}
				}
			}
		}
	}
}
