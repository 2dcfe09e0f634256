package cluster

import (
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/parallel"
	"rangeagg/internal/serve"
)

func clusterSpecs() []engine.SynopsisSpec {
	return []engine.SynopsisSpec{
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 16}},
		{Name: "s", Metric: engine.Sum, Options: build.Options{Method: build.SAP0, BudgetWords: 24}},
	}
}

// startNode runs one segment owner: a full-domain serve.Server whose
// counts are zero outside its owned window (design choice (a): global
// coordinates everywhere, no translation).
func startNode(t *testing.T, counts []int64, w Window) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(nodeHandler(t, counts, w))
	t.Cleanup(ts.Close)
	return ts
}

// nodeHandler is startNode's node before it listens.
func nodeHandler(t *testing.T, counts []int64, w Window) http.Handler {
	t.Helper()
	eng, err := engine.New("node", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	owned := make([]int64, len(counts))
	copy(owned[w.Lo:w.Hi+1], counts[w.Lo:w.Hi+1])
	if err := eng.Load(owned); err != nil {
		t.Fatal(err)
	}
	// Short debounce: nodes republish promptly after routed writes land.
	s, err := serve.New(eng, clusterSpecs(), serve.Config{Debounce: 2 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return serve.NewHandler(s, serve.NewMetrics())
}

// evenWindows splits [0,domain) into k contiguous windows.
func evenWindows(domain, k int) []Window {
	ws := make([]Window, k)
	per := domain / k
	lo := 0
	for i := 0; i < k; i++ {
		hi := lo + per - 1
		if i == k-1 {
			hi = domain - 1
		}
		ws[i] = Window{Lo: lo, Hi: hi}
		lo = hi + 1
	}
	return ws
}

// startCluster runs k nodes over counts and a router fronting them.
// The health poller is disabled; tests sweep explicitly when they need
// observations.
func startCluster(t *testing.T, counts []int64, k int, cfg RouterConfig) *Router {
	t.Helper()
	windows := evenWindows(len(counts), k)
	nodes := make([]Node, k)
	for i, w := range windows {
		ts := startNode(t, counts, w)
		nodes[i] = Node{ID: fmt.Sprintf("n%d", i), Addr: ts.URL, Window: w}
	}
	topo := &Topology{Domain: len(counts), Nodes: nodes}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	if cfg.HealthEvery == 0 {
		cfg.HealthEvery = -1
	}
	if cfg.Backoff == 0 {
		cfg.Backoff = time.Millisecond
	}
	r := NewRouter(topo, cfg)
	t.Cleanup(r.Close)
	return r
}

// startReference runs one full-domain node holding all the data — the
// oracle the routed answers must match bit-exactly.
func startReference(t *testing.T, counts []int64) *serve.Server {
	t.Helper()
	eng, err := engine.New("ref", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(eng, clusterSpecs(), serve.Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

// boundaryRanges builds ranges that straddle every window boundary of a
// k-node split, plus full-domain, single-window, and single-value
// ranges.
func boundaryRanges(domain, k int) [][2]int {
	var rs [][2]int
	for _, w := range evenWindows(domain, k)[:k-1] {
		b := w.Hi
		rs = append(rs,
			[2]int{b, b + 1},                // tightest straddle
			[2]int{b - 5, b + 5},            // small straddle
			[2]int{0, b},                    // prefix ending on a boundary
			[2]int{b + 1, domain - 1},       // suffix starting after one
			[2]int{b / 2, (b + domain) / 2}, // wide straddle
		)
	}
	rs = append(rs, [2]int{0, domain - 1}, [2]int{3, 7}, [2]int{domain / 2, domain / 2})
	return rs
}

func testDistributions(t *testing.T, n int) map[string][]int64 {
	t.Helper()
	zipf, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: 1.8, MaxCount: 1000, Permute: true, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	uni, err := dataset.Uniform(n, 0, 50, 11)
	if err != nil {
		t.Fatal(err)
	}
	spiked, err := dataset.Spikes(n, 9, 5000, 13)
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]int64{"zipf": zipf.Counts, "uniform": uni.Counts, "spiked": spiked.Counts}
}

// TestRouterOracleDifferential pins the cluster's core guarantee: a
// routed exact query (maxerr=0 escalates every node to its exact
// tables) equals the single-node answer bit-for-bit, for COUNT and SUM,
// across distributions, cluster sizes, and ranges straddling every
// window boundary. Exact answers are integer-valued and far below 2^53,
// so float64 addition across windows is lossless and == is the right
// comparison.
func TestRouterOracleDifferential(t *testing.T) {
	const n = 256
	for name, counts := range testDistributions(t, n) {
		for _, k := range []int{2, 4} {
			t.Run(fmt.Sprintf("%s/k=%d", name, k), func(t *testing.T) {
				router := startCluster(t, counts, k, RouterConfig{})
				ref := startReference(t, counts)
				zero := 0.0
				for _, metric := range []engine.Metric{engine.Count, engine.Sum} {
					for _, rg := range boundaryRanges(n, k) {
						want, _ := ref.QueryOne(serve.Query{Metric: metric, A: rg[0], B: rg[1], MaxErr: &zero})
						if want.Err != nil {
							t.Fatal(want.Err)
						}
						res, err := router.Route(context.Background(),
							Query{Metric: metric.String(), A: rg[0], B: rg[1], MaxErr: &zero})
						if err != nil {
							t.Fatalf("%s [%d,%d]: %v", metric, rg[0], rg[1], err)
						}
						if res.Partial {
							t.Fatalf("%s [%d,%d]: unexpected partial answer: %+v", metric, rg[0], rg[1], res.Windows)
						}
						if res.Answer.Value != want.Value {
							t.Fatalf("%s [%d,%d]: routed %v, single-node %v (diff %g)",
								metric, rg[0], rg[1], res.Answer.Value, want.Value, res.Answer.Value-want.Value)
						}
						if res.Answer.Bound != 0 || !res.Answer.Rigorous {
							t.Fatalf("%s [%d,%d]: exact answer carries bound %v rigorous=%v",
								metric, rg[0], rg[1], res.Answer.Bound, res.Answer.Rigorous)
						}
					}
				}
			})
		}
	}
}

// TestRouterBatchOracleDifferential pins the same guarantee for the
// batched path, which groups sub-ranges per node.
func TestRouterBatchOracleDifferential(t *testing.T) {
	const n = 256
	counts := testDistributions(t, n)["zipf"]
	for _, k := range []int{2, 4} {
		t.Run(fmt.Sprintf("k=%d", k), func(t *testing.T) {
			router := startCluster(t, counts, k, RouterConfig{})
			ref := startReference(t, counts)
			ranges := boundaryRanges(n, k)
			zero := 0.0
			res, err := router.RouteBatch(context.Background(), "", "COUNT", ranges, &zero)
			if err != nil {
				t.Fatal(err)
			}
			if res.Partial {
				t.Fatalf("unexpected partial batch: %+v", res.Windows)
			}
			qs := make([]serve.Query, len(ranges))
			for i, rg := range ranges {
				qs[i] = serve.Query{Metric: engine.Count, A: rg[0], B: rg[1], MaxErr: &zero}
			}
			want, _ := ref.QueryBatch(qs)
			for i := range ranges {
				if !res.Served[i] {
					t.Fatalf("range %v not served in a healthy cluster", ranges[i])
				}
				if res.Values[i] != want[i].Value {
					t.Fatalf("range %v: routed %v, single-node %v", ranges[i], res.Values[i], want[i].Value)
				}
				if res.Errs[i] == nil || *res.Errs[i] != 0 {
					t.Fatalf("range %v: exact batch answer carries bound %v", ranges[i], res.Errs[i])
				}
			}
		})
	}
}

// TestRouterBudgetSplit pins the budget contract: a routed answer with
// maxerr carries a merged rigorous bound within the budget, and the
// true error is within the bound.
func TestRouterBudgetSplit(t *testing.T) {
	const n = 256
	counts := testDistributions(t, n)["zipf"]
	router := startCluster(t, counts, 4, RouterConfig{})
	ref := startReference(t, counts)
	budget := 25.0
	zero := 0.0
	for _, rg := range boundaryRanges(n, 4) {
		res, err := router.Route(context.Background(), Query{Metric: "COUNT", A: rg[0], B: rg[1], MaxErr: &budget})
		if err != nil {
			t.Fatal(err)
		}
		if res.Answer.Bound > budget {
			t.Fatalf("[%d,%d]: merged bound %g exceeds budget %g", rg[0], rg[1], res.Answer.Bound, budget)
		}
		if !res.Answer.Rigorous {
			t.Fatalf("[%d,%d]: bound not rigorous", rg[0], rg[1])
		}
		exact, _ := ref.QueryOne(serve.Query{Metric: engine.Count, A: rg[0], B: rg[1], MaxErr: &zero})
		if diff := abs(res.Answer.Value - exact.Value); diff > res.Answer.Bound {
			t.Fatalf("[%d,%d]: true error %g exceeds claimed bound %g", rg[0], rg[1], diff, res.Answer.Bound)
		}
	}
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

// TestRouterFailoverToReplica kills a node's primary and checks the
// router serves its window from the replica — and says so.
func TestRouterFailoverToReplica(t *testing.T) {
	const n = 128
	counts := testDistributions(t, n)["uniform"]
	windows := evenWindows(n, 2)

	deadPrimary := httptest.NewServer(nil)
	deadPrimary.Close() // connection refused from now on
	replica := startNode(t, counts, windows[0])
	live := startNode(t, counts, windows[1])

	topo := &Topology{Domain: n, Nodes: []Node{
		{ID: "n0", Addr: deadPrimary.URL, Window: windows[0], Replicas: []string{replica.URL}},
		{ID: "n1", Addr: live.URL, Window: windows[1]},
	}}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Timeout: time.Second})
	t.Cleanup(router.Close)

	zero := 0.0
	res, err := router.Route(context.Background(), Query{Metric: "COUNT", A: 10, B: n - 10, MaxErr: &zero})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial {
		t.Fatalf("replica failover must not degrade to partial: %+v", res.Windows)
	}
	var exact int64
	for i := 10; i <= n-10; i++ {
		exact += counts[i]
	}
	if res.Answer.Value != float64(exact) {
		t.Fatalf("failover answer %v, want %d", res.Answer.Value, exact)
	}
	foundReplica := false
	for _, w := range res.Windows {
		if w.Node == "n0" {
			if !w.Replica || w.Endpoint != normalizeAddr(replica.URL) {
				t.Fatalf("n0's window should be served by the replica: %+v", w)
			}
			if w.Attempts < 2 {
				t.Fatalf("failover with cold health state should need >1 attempt, got %d", w.Attempts)
			}
			foundReplica = true
		}
	}
	if !foundReplica {
		t.Fatalf("no report for n0: %+v", res.Windows)
	}

	// After a health sweep the dead primary is known dead: the replica is
	// tried first and the window is served on the first attempt.
	router.CheckHealth()
	res, err = router.Route(context.Background(), Query{Metric: "COUNT", A: 10, B: n - 10, MaxErr: &zero})
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range res.Windows {
		if w.Node == "n0" && w.Attempts != 1 {
			t.Fatalf("with health state the replica should answer first try, got %d attempts", w.Attempts)
		}
	}
}

// TestRouterPartialAnswer kills a whole node (no replicas) and checks
// the partial-answer contract: the other windows still answer exactly,
// the failed window is reported, and the merged value is the partial
// sum — never a silently wrong total.
func TestRouterPartialAnswer(t *testing.T) {
	const n = 128
	counts := testDistributions(t, n)["spiked"]
	windows := evenWindows(n, 2)

	live := startNode(t, counts, windows[0])
	dead := httptest.NewServer(nil)
	dead.Close()

	topo := &Topology{Domain: n, Nodes: []Node{
		{ID: "n0", Addr: live.URL, Window: windows[0]},
		{ID: "n1", Addr: dead.URL, Window: windows[1]},
	}}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Attempts: 2, Timeout: time.Second})
	t.Cleanup(router.Close)

	zero := 0.0
	res, err := router.Route(context.Background(), Query{Metric: "COUNT", A: 0, B: n - 1, MaxErr: &zero})
	if err != nil {
		t.Fatalf("a partial answer is a result, not an error: %v", err)
	}
	if !res.Partial {
		t.Fatal("losing a window must mark the answer partial")
	}
	var statuses []string
	for _, w := range res.Windows {
		statuses = append(statuses, w.Node+"="+w.Status)
	}
	if len(res.Windows) != 2 || res.Windows[0].Status != "exact" || res.Windows[1].Status != "failed" {
		t.Fatalf("window reports: %v", statuses)
	}
	var partial int64
	for i := windows[0].Lo; i <= windows[0].Hi; i++ {
		partial += counts[i]
	}
	if res.Answer.Value != float64(partial) {
		t.Fatalf("partial value %v, want the served windows' sum %d", res.Answer.Value, partial)
	}

	// A range entirely inside the live window is unaffected.
	res, err = router.Route(context.Background(), Query{Metric: "COUNT", A: 0, B: windows[0].Hi, MaxErr: &zero})
	if err != nil || res.Partial {
		t.Fatalf("live-window query: err=%v partial=%v", err, res.Partial)
	}

	// A range entirely inside the dead window fails outright.
	if _, err = router.Route(context.Background(), Query{Metric: "COUNT", A: windows[1].Lo, B: n - 1, MaxErr: &zero}); err == nil {
		t.Fatal("a query all of whose windows failed must return an error")
	}
}

// TestRouterBatchPartial pins the batch Served contract when one node
// is down: ranges touching the dead window are flagged unserved, ranges
// inside live windows stay bit-exact.
func TestRouterBatchPartial(t *testing.T) {
	const n = 128
	counts := testDistributions(t, n)["uniform"]
	windows := evenWindows(n, 2)
	live := startNode(t, counts, windows[0])
	dead := httptest.NewServer(nil)
	dead.Close()

	topo := &Topology{Domain: n, Nodes: []Node{
		{ID: "n0", Addr: live.URL, Window: windows[0]},
		{ID: "n1", Addr: dead.URL, Window: windows[1]},
	}}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Attempts: 2, Timeout: time.Second})
	t.Cleanup(router.Close)

	b := windows[0].Hi
	ranges := [][2]int{
		{0, b},         // live only
		{b - 3, b + 3}, // straddles into the dead window
		{b + 1, n - 1}, // dead only
	}
	zero := 0.0
	res, err := router.RouteBatch(context.Background(), "", "COUNT", ranges, &zero)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Partial {
		t.Fatal("batch touching a dead window must be partial")
	}
	if !res.Served[0] || res.Served[1] || res.Served[2] {
		t.Fatalf("served flags %v, want [true false false]", res.Served)
	}
	var exact int64
	for i := 0; i <= b; i++ {
		exact += counts[i]
	}
	if res.Values[0] != float64(exact) {
		t.Fatalf("served range value %v, want %d", res.Values[0], exact)
	}
}

// TestRouterOutsideDomain pins the zero-answer convention for ranges
// that miss the domain entirely.
func TestRouterOutsideDomain(t *testing.T) {
	counts := make([]int64, 64)
	router := startCluster(t, counts, 2, RouterConfig{})
	res, err := router.Route(context.Background(), Query{Metric: "COUNT", A: 100, B: 200})
	if err != nil {
		t.Fatal(err)
	}
	if res.Partial || res.Answer.Value != 0 || res.Answer.Bound != 0 || !res.Answer.Rigorous {
		t.Fatalf("out-of-domain range must answer an exact zero: %+v", res.Answer)
	}
}

// TestRouterFanOutOffCPUPool pins that a routed query's sub-requests
// wait on their nodes concurrently even with a one-worker CPU pool: two
// nodes that each answer after 200 ms must serve a spanning query and a
// spanning batch in well under the 400 ms a serial fan-out takes.
func TestRouterFanOutOffCPUPool(t *testing.T) {
	defer parallel.SetWorkers(parallel.SetWorkers(1))
	const n, delay = 64, 200 * time.Millisecond
	counts := testDistributions(t, n)["uniform"]
	windows := evenWindows(n, 2)
	nodes := make([]Node, len(windows))
	for i, w := range windows {
		node := nodeHandler(t, counts, w)
		slow := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, req *http.Request) {
			time.Sleep(delay)
			node.ServeHTTP(rw, req)
		}))
		t.Cleanup(slow.Close)
		nodes[i] = Node{ID: fmt.Sprintf("n%d", i), Addr: slow.URL, Window: w}
	}
	topo := &Topology{Domain: n, Nodes: nodes}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	router := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond})
	t.Cleanup(router.Close)

	zero := 0.0
	start := time.Now()
	res, err := router.Route(context.Background(), Query{Metric: "COUNT", A: 0, B: n - 1, MaxErr: &zero})
	if err != nil || res.Partial {
		t.Fatalf("route: %v (partial %v)", err, res.Partial)
	}
	if took := time.Since(start); took >= 300*time.Millisecond {
		t.Errorf("Route over two %v nodes took %v", delay, took)
	}
	start = time.Now()
	batch, err := router.RouteBatch(context.Background(), "", "COUNT", [][2]int{{0, n - 1}, {5, 40}}, &zero)
	if err != nil || batch.Partial {
		t.Fatalf("batch: %v (partial %v)", err, batch.Partial)
	}
	if took := time.Since(start); took >= 300*time.Millisecond {
		t.Errorf("RouteBatch over two %v nodes took %v", delay, took)
	}
}
