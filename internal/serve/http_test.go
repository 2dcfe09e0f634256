package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/wal"
)

func newTestHandler(t *testing.T) (*Server, *Metrics, *httptest.Server) {
	t.Helper()
	eng, err := engine.New("http-test", 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, testSpecs(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	ts := httptest.NewServer(NewHandler(s, m))
	t.Cleanup(func() { ts.Close(); s.Close() })
	return s, m, ts
}

func getJSON(t *testing.T, url string, wantStatus int) map[string]any {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("GET %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func postJSON(t *testing.T, url string, body any, wantStatus int) map[string]any {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d", url, resp.StatusCode, wantStatus)
	}
	var out map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	return out
}

func TestHandlerHealthQueryBatch(t *testing.T) {
	s, _, ts := newTestHandler(t)

	health := getJSON(t, ts.URL+"/health", http.StatusOK)
	if health["status"] != "ok" || health["domain"].(float64) != 64 {
		t.Fatalf("health = %v", health)
	}

	// Exact single query.
	q := getJSON(t, ts.URL+"/query?a=0&b=63", http.StatusOK)
	if got, want := q["value"].(float64), float64(s.Snapshot().ExactCount(0, 63)); got != want {
		t.Fatalf("exact query = %g, want %g", got, want)
	}
	// SUM metric and synopsis path.
	getJSON(t, ts.URL+"/query?a=3&b=40&metric=SUM", http.StatusOK)
	getJSON(t, ts.URL+"/query?a=3&b=40&syn=h", http.StatusOK)
	// Errors.
	getJSON(t, ts.URL+"/query?a=3&b=40&syn=nope", http.StatusNotFound)
	getJSON(t, ts.URL+"/query?a=x&b=40", http.StatusBadRequest)
	getJSON(t, ts.URL+"/query?a=0&b=1&metric=MEDIAN", http.StatusBadRequest)

	// Batch answers match singles and report one version.
	ranges := [][2]int{{0, 5}, {10, 20}, {0, 63}, {-5, 100}}
	batch := postJSON(t, ts.URL+"/query/batch",
		map[string]any{"synopsis": "h", "ranges": ranges}, http.StatusOK)
	values := batch["values"].([]any)
	if len(values) != len(ranges) {
		t.Fatalf("batch returned %d values for %d ranges", len(values), len(ranges))
	}
	for i, rg := range ranges {
		single := getJSON(t, fmt.Sprintf("%s/query?a=%d&b=%d&syn=h", ts.URL, rg[0], rg[1]), http.StatusOK)
		if values[i].(float64) != single["value"].(float64) {
			t.Fatalf("range %v: batch %v, single %v", rg, values[i], single["value"])
		}
	}
	postJSON(t, ts.URL+"/query/batch", map[string]any{"synopsis": "nope", "ranges": ranges}, http.StatusNotFound)
	postJSON(t, ts.URL+"/query/batch", map[string]any{"metric": "MEDIAN", "ranges": ranges}, http.StatusBadRequest)
}

func TestHandlerIngestLoadRebuild(t *testing.T) {
	s, _, ts := newTestHandler(t)
	version := s.Snapshot().Version

	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 3, "count": 10}},
		"deletes": []map[string]any{{"value": 3, "count": 4}},
	}, http.StatusOK)
	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": -1, "count": 10}},
	}, http.StatusBadRequest)

	counts := make([]int64, 64)
	counts[5] = 99
	postJSON(t, ts.URL+"/load", map[string]any{"counts": counts}, http.StatusOK)
	postJSON(t, ts.URL+"/load", map[string]any{"counts": []int64{1}}, http.StatusBadRequest)

	reb := postJSON(t, ts.URL+"/rebuild", nil, http.StatusOK)
	if int64(reb["version"].(float64)) <= version {
		t.Fatalf("rebuild did not advance the version: %v", reb)
	}
	// Load accumulates: value 5 had count 5 (5 % 7) before the bulk load.
	q := getJSON(t, ts.URL+"/query?a=5&b=5", http.StatusOK)
	if q["value"].(float64) != 104 {
		t.Fatalf("loaded data not served: %v", q)
	}
}

func TestHandlerSynopsisExportRoundTrips(t *testing.T) {
	s, _, ts := newTestHandler(t)
	resp, err := http.Get(ts.URL + "/synopsis?name=h")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status %d", resp.StatusCode)
	}
	est, err := codec.Read(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	want, _ := snap.Approx("h", 3, 40)
	if got := est.Estimate(3, 40); got != want {
		t.Fatalf("exported synopsis answers %g, server %g", got, want)
	}
	getJSON(t, ts.URL+"/synopsis?name=nope", http.StatusNotFound)
}

func TestHandlerMetricsAndMethodChecks(t *testing.T) {
	_, _, ts := newTestHandler(t)
	getJSON(t, ts.URL+"/health", http.StatusOK)
	getJSON(t, ts.URL+"/query?a=0&b=1", http.StatusOK)
	getJSON(t, ts.URL+"/query?a=x&b=1", http.StatusBadRequest)
	// Wrong method is rejected and counted as an error.
	resp, err := http.Post(ts.URL+"/health", "application/json", strings.NewReader("{}"))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("POST /health status %d", resp.StatusCode)
	}

	endpoints := getJSON(t, ts.URL+"/metrics", http.StatusOK)["endpoints"].(map[string]any)
	query := endpoints["query"].(map[string]any)
	if query["requests"].(float64) != 2 || query["errors"].(float64) != 1 {
		t.Fatalf("query stats = %v", query)
	}
	health := endpoints["health"].(map[string]any)
	if health["requests"].(float64) != 2 || health["errors"].(float64) != 1 {
		t.Fatalf("health stats = %v", health)
	}
}

// TestHandlerDurabilityMetrics runs the handler over a WAL-backed server
// and checks the /metrics durability block: gauges appear, count the
// logged mutations, and a recovered server reports its replay.
func TestHandlerDurabilityMetrics(t *testing.T) {
	dir := t.TempDir()
	db, _, err := wal.Open(dir, wal.Options{Domain: 64})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(db.Engine(), testSpecs(), Config{WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	ts := httptest.NewServer(NewHandler(s, m))

	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 3, "count": 5}, {"value": 40, "count": 2}},
	}, http.StatusOK)
	counts := make([]int64, 64)
	counts[10] = 7
	postJSON(t, ts.URL+"/load", map[string]any{"counts": counts}, http.StatusOK)

	stats := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	dur, ok := stats["durability"].(map[string]any)
	if !ok {
		t.Fatalf("no durability block in /metrics: %v", stats)
	}
	if got := dur["wal_appends"].(float64); got != 3 { // 2 inserts + load
		t.Fatalf("wal_appends = %v, want 3", got)
	}
	if dur["wal_bytes"].(float64) <= 0 {
		t.Fatalf("wal_bytes = %v, want > 0", dur["wal_bytes"])
	}
	if got := dur["replayed_records"].(float64); got != 0 {
		t.Fatalf("replayed_records = %v on a fresh dir", got)
	}
	if _, ok := dur["last_checkpoint_age_s"]; !ok {
		t.Fatal("no last_checkpoint_age_s gauge")
	}
	postJSON(t, ts.URL+"/rebuild", nil, http.StatusOK)
	answer := getJSON(t, ts.URL+"/query?syn=h&a=0&b=63", http.StatusOK)["value"].(float64)

	ts.Close()
	s.Close()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	// Recover: the replay count surfaces in the gauges and the rebuilt
	// synopsis answers as before.
	db2, _, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db2.Close()
	s2, err := New(db2.Engine(), testSpecs(), Config{WAL: db2})
	if err != nil {
		t.Fatal(err)
	}
	ts2 := httptest.NewServer(NewHandler(s2, NewMetrics()))
	t.Cleanup(func() { ts2.Close(); s2.Close() })

	stats = getJSON(t, ts2.URL+"/metrics", http.StatusOK)
	dur = stats["durability"].(map[string]any)
	if got := dur["replayed_records"].(float64); got != 3 {
		t.Fatalf("replayed_records = %v after restart, want 3", got)
	}
	got := getJSON(t, ts2.URL+"/query?syn=h&a=0&b=63", http.StatusOK)["value"].(float64)
	if got-answer > 1e-9 || answer-got > 1e-9 {
		t.Fatalf("recovered answer %g, pre-restart %g", got, answer)
	}
	// A plain (non-durable) server exposes no durability block.
	_, _, plain := newTestHandler(t)
	if _, ok := getJSON(t, plain.URL+"/metrics", http.StatusOK)["durability"]; ok {
		t.Fatal("non-durable server reports durability gauges")
	}
}

// TestHandlerObservabilityEndpoints drives a build→checkpoint→query
// cycle against a WAL-backed server and checks the three observability
// surfaces: /metrics latency quantiles, /metrics.prom Prometheus text,
// and /trace span coverage.
func TestHandlerObservabilityEndpoints(t *testing.T) {
	dir := t.TempDir()
	db, _, err := wal.Open(dir, wal.Options{Domain: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := New(db.Engine(), testSpecs(), Config{WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	m := NewMetrics()
	ts := httptest.NewServer(NewHandler(s, m))
	t.Cleanup(func() { ts.Close(); s.Close() })

	// Build (rebuild), checkpoint, and query so spans and histograms of
	// every layer exist.
	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 3, "count": 5}},
	}, http.StatusOK)
	postJSON(t, ts.URL+"/rebuild", nil, http.StatusOK)
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		getJSON(t, ts.URL+"/query?a=0&b=10", http.StatusOK)
	}
	postJSON(t, ts.URL+"/query/batch",
		map[string]any{"ranges": [][2]int{{0, 5}, {6, 20}}}, http.StatusOK)

	// /metrics JSON: endpoint stats now carry latency quantiles, and the
	// per-method build block reports the synopsis constructions.
	stats := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	query := stats["endpoints"].(map[string]any)["query"].(map[string]any)
	for _, k := range []string{"p50_ms", "p95_ms", "p99_ms", "max_ms", "mean_ms"} {
		if _, ok := query[k].(float64); !ok {
			t.Fatalf("query stats missing %s: %v", k, query)
		}
	}
	if query["p50_ms"].(float64) > query["p99_ms"].(float64) {
		t.Fatalf("p50 > p99: %v", query)
	}
	builds, ok := stats["builds"].(map[string]any)
	if !ok || len(builds) == 0 {
		t.Fatalf("no builds block in /metrics: %v", stats)
	}

	// /metrics.prom: Prometheus text with per-endpoint latency histogram
	// series and the process-wide build-phase and WAL series.
	resp, err := http.Get(ts.URL + "/metrics.prom")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "version=0.0.4") {
		t.Fatalf("Content-Type = %q", ct)
	}
	prom := string(raw)
	for _, want := range []string{
		"# TYPE rangeagg_http_request_seconds histogram",
		`rangeagg_http_request_seconds_bucket{endpoint="query",le="+Inf"}`,
		`rangeagg_http_requests_total{endpoint="query"} 5`,
		"# TYPE rangeagg_build_seconds histogram",
		"rangeagg_build_phase_seconds_bucket",
		"rangeagg_wal_append_seconds_count",
		"rangeagg_serve_rebuild_seconds_count",
	} {
		if !strings.Contains(prom, want) {
			t.Errorf("/metrics.prom missing %q", want)
		}
	}

	// /trace: recent spans cover the whole build→checkpoint→query cycle
	// (plus the WAL recovery from opening the data dir).
	trace := getJSON(t, ts.URL+"/trace", http.StatusOK)
	spans, ok := trace["spans"].([]any)
	if !ok {
		t.Fatalf("no spans in /trace: %v", trace)
	}
	seen := map[string]bool{}
	for _, sp := range spans {
		seen[sp.(map[string]any)["name"].(string)] = true
	}
	for _, want := range []string{"serve.rebuild", "wal.recover", "wal.checkpoint", "serve.query_batch"} {
		if !seen[want] {
			t.Errorf("/trace missing span %q (saw %v)", want, seen)
		}
	}
	if _, ok := trace["slow_ops"]; !ok {
		t.Error("/trace missing slow_ops")
	}
}

// TestHandlerMetricsKeepsIngestEndpoint pins the /metrics layout: the
// endpoint stats live under "endpoints", so the maintenance block under
// "ingest" no longer hides the /ingest endpoint's stats once a
// maintained publish has run.
func TestHandlerMetricsKeepsIngestEndpoint(t *testing.T) {
	_, s := newIngestServer(t, 256, incrementalCfg())
	ts := httptest.NewServer(NewHandler(s, NewMetrics()))
	t.Cleanup(ts.Close)
	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 20, "count": 5}},
	}, http.StatusOK)
	postJSON(t, ts.URL+"/rebuild", nil, http.StatusOK)

	stats := getJSON(t, ts.URL+"/metrics", http.StatusOK)
	ep, ok := stats["endpoints"].(map[string]any)["ingest"].(map[string]any)
	if !ok || ep["requests"].(float64) != 1 {
		t.Fatalf("endpoints.ingest = %v", stats["endpoints"])
	}
	maint, ok := stats["ingest"].(map[string]any)
	if !ok || maint["rebuilds_avoided"].(float64) == 0 {
		t.Fatalf("maintenance block ingest = %v", stats["ingest"])
	}
}

// TestHandlerRefusesInvalidMutations pins that /load and /ingest refuse a
// body the engine cannot apply whole — a negative count after good ones,
// a count past the record bound — with a 400 and no change to the data.
func TestHandlerRefusesInvalidMutations(t *testing.T) {
	_, _, ts := newTestHandler(t)
	records := getJSON(t, ts.URL+"/health", http.StatusOK)["records"].(float64)

	counts := make([]int64, 64)
	counts[0], counts[40] = 5, -1
	postJSON(t, ts.URL+"/load", map[string]any{"counts": counts}, http.StatusBadRequest)
	counts[40] = math.MaxInt64
	postJSON(t, ts.URL+"/load", map[string]any{"counts": counts}, http.StatusBadRequest)
	for i := 0; i < 2; i++ {
		postJSON(t, ts.URL+"/ingest", map[string]any{
			"inserts": []map[string]any{{"value": 3, "count": int64(math.MaxInt64)}},
		}, http.StatusBadRequest)
	}
	// A valid write and a forced publish show exactly that one record on
	// top of the old ones.
	postJSON(t, ts.URL+"/ingest", map[string]any{
		"inserts": []map[string]any{{"value": 3, "count": 1}},
	}, http.StatusOK)
	postJSON(t, ts.URL+"/rebuild", nil, http.StatusOK)
	if got := getJSON(t, ts.URL+"/health", http.StatusOK)["records"].(float64); got != records+1 {
		t.Fatalf("records %v after refused mutations and one insert, want %v", got, records+1)
	}
	if got := getJSON(t, ts.URL+"/query?a=0&b=63&maxerr=0", http.StatusOK)["value"].(float64); got != records+1 {
		t.Fatalf("exact total %v after refused mutations and one insert, want %v", got, records+1)
	}
}
