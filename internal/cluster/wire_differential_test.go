package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"net/url"
	"regexp"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/serve"
)

// The wire differential. The node and router handlers encode typed
// bodies (serve's wire types and the router's routed answers); they used
// to build map[string]any bodies and decode into anonymous structs. The
// ref* functions below keep that earlier encoding as the reference, and
// the test compares every response body and every router → node request
// body against it byte for byte, with the status code, over seeded
// random inputs. Node /metrics is the one deliberate change: its
// endpoint stats moved under "endpoints", pinned in internal/serve.

// refEncode is the handlers' json.Encoder output, trailing newline
// included.
func refEncode(v any) []byte {
	var b bytes.Buffer
	_ = json.NewEncoder(&b).Encode(v)
	return b.Bytes()
}

func refError(err error) []byte { return refEncode(map[string]string{"error": err.Error()}) }

func refMaxErr(f float64) error {
	if f < 0 || math.IsNaN(f) {
		return fmt.Errorf("maxerr must be a non-negative number, got %g", f)
	}
	return nil
}

// refParams is the URL parsing both handlers shared in spirit: a node
// resolved the metric first, a router kept its wire name.
func refParams(v url.Values) (a, b int, maxErr *float64, err error) {
	if a, err = strconv.Atoi(v.Get("a")); err != nil {
		return 0, 0, nil, fmt.Errorf("parameter a: %w", err)
	}
	if b, err = strconv.Atoi(v.Get("b")); err != nil {
		return 0, 0, nil, fmt.Errorf("parameter b: %w", err)
	}
	if s := v.Get("maxerr"); s != "" {
		f, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, nil, fmt.Errorf("parameter maxerr: %w", err)
		}
		if err := refMaxErr(f); err != nil {
			return 0, 0, nil, err
		}
		maxErr = &f
	}
	return a, b, maxErr, nil
}

// refAnswer is the answer part of both /query bodies.
func refAnswer(value float64, path, source string, bound float64, rigorous bool) map[string]any {
	m := map[string]any{"value": value, "path": path, "source": source}
	if !math.IsInf(bound, 1) {
		m["err"] = bound
		m["rigorous"] = rigorous
	}
	return m
}

func refNodeQuery(s *serve.Server, v url.Values) (int, []byte) {
	metric, err := engine.ParseMetric(v.Get("metric"))
	if err != nil {
		return http.StatusBadRequest, refError(err)
	}
	a, b, maxErr, err := refParams(v)
	if err != nil {
		return http.StatusBadRequest, refError(err)
	}
	res, version := s.QueryOne(serve.Query{Synopsis: v.Get("syn"), Metric: metric, A: a, B: b, MaxErr: maxErr})
	if res.Err != nil {
		return http.StatusNotFound, refError(res.Err)
	}
	m := refAnswer(res.Value, res.Path.String(), res.Source, res.Bound, res.Rigorous)
	m["version"] = version
	return http.StatusOK, refEncode(m)
}

// refBatchBody is the anonymous request struct both handlers decoded.
type refBatchBody struct {
	Synopsis string   `json:"synopsis"`
	Metric   string   `json:"metric"`
	Ranges   [][2]int `json:"ranges"`
	MaxErr   *float64 `json:"maxerr"`
}

func refNodeBatch(s *serve.Server, body []byte) (int, []byte) {
	var req refBatchBody
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, refError(fmt.Errorf("decoding batch request: %w", err))
	}
	metric, err := engine.ParseMetric(req.Metric)
	if err != nil {
		return http.StatusBadRequest, refError(err)
	}
	if req.MaxErr != nil {
		if err := refMaxErr(*req.MaxErr); err != nil {
			return http.StatusBadRequest, refError(err)
		}
	}
	qs := make([]serve.Query, len(req.Ranges))
	for i, rg := range req.Ranges {
		qs[i] = serve.Query{Synopsis: req.Synopsis, Metric: metric, A: rg[0], B: rg[1], MaxErr: req.MaxErr}
	}
	results, version := s.QueryBatch(qs)
	values := make([]float64, len(results))
	errs := make([]*float64, len(results))
	for i, res := range results {
		if res.Err != nil {
			return http.StatusNotFound, refError(res.Err)
		}
		values[i] = res.Value
		if !math.IsInf(res.Bound, 1) {
			bound := res.Bound
			errs[i] = &bound
		}
	}
	return http.StatusOK, refEncode(map[string]any{"values": values, "errs": errs, "version": version})
}

func refRoutedQuery(r *Router, v url.Values) (int, []byte) {
	a, b, maxErr, err := refParams(v)
	if err != nil {
		return http.StatusBadRequest, refError(err)
	}
	res, err := r.Route(context.Background(), Query{Synopsis: v.Get("syn"), Metric: v.Get("metric"), A: a, B: b, MaxErr: maxErr})
	if err != nil {
		return http.StatusBadGateway, refError(err)
	}
	m := refAnswer(res.Answer.Value, res.Answer.Path.String(), res.Answer.Source, res.Answer.Bound, res.Answer.Rigorous)
	m["partial"], m["windows"], m["versions"] = res.Partial, res.Windows, res.Versions
	return http.StatusOK, refEncode(m)
}

func refRoutedBatch(r *Router, body []byte) (int, []byte) {
	var req refBatchBody
	if err := json.NewDecoder(bytes.NewReader(body)).Decode(&req); err != nil {
		return http.StatusBadRequest, refError(fmt.Errorf("decoding batch request: %w", err))
	}
	if req.MaxErr != nil {
		if err := refMaxErr(*req.MaxErr); err != nil {
			return http.StatusBadRequest, refError(err)
		}
	}
	res, err := r.RouteBatch(context.Background(), req.Synopsis, req.Metric, req.Ranges, req.MaxErr)
	if err != nil {
		return http.StatusBadGateway, refError(err)
	}
	return http.StatusOK, refEncode(map[string]any{
		"values": res.Values, "errs": res.Errs, "served": res.Served,
		"partial": res.Partial, "windows": res.Windows, "versions": res.Versions,
	})
}

// refSubQuery is the URL the router built for a node's GET /query:
// window bounds and budget share as sent, metric and synopsis only when
// the client set them, maxerr only when the client had a budget.
func refSubQuery(sent url.Values, client url.Values) string {
	v := url.Values{}
	v.Set("a", sent.Get("a"))
	v.Set("b", sent.Get("b"))
	if m := client.Get("metric"); m != "" {
		v.Set("metric", m)
	}
	if s := client.Get("syn"); s != "" {
		v.Set("syn", s)
	}
	if client.Get("maxerr") != "" {
		f, _ := strconv.ParseFloat(sent.Get("maxerr"), 64)
		v.Set("maxerr", strconv.FormatFloat(f, 'g', -1, 64))
	}
	return v.Encode()
}

// refSubBatch is the body the router marshalled for a node's POST
// /query/batch, from the sub-ranges and budget share it sent and the
// client's synopsis, metric and budget presence.
func refSubBatch(t *testing.T, sent []byte, client refBatchBody) []byte {
	t.Helper()
	var got refBatchBody
	if err := json.Unmarshal(sent, &got); err != nil {
		t.Fatalf("undecodable sub-request %s: %v", sent, err)
	}
	m := map[string]any{"ranges": got.Ranges}
	if client.Synopsis != "" {
		m["synopsis"] = client.Synopsis
	}
	if client.Metric != "" {
		m["metric"] = client.Metric
	}
	if client.MaxErr != nil {
		if got.MaxErr == nil {
			t.Fatalf("sub-request %s dropped the budget", sent)
		}
		m["maxerr"] = *got.MaxErr
	}
	data, _ := json.Marshal(m)
	return data
}

// refMutation is the router's old mutation type, in its field order.
type refMutation struct {
	Value int   `json:"value"`
	Count int64 `json:"count"`
}

// recorder fronts a node handler and keeps the requests it receives.
type recorder struct {
	h    http.Handler
	mu   sync.Mutex
	reqs []recorded
}

type recorded struct {
	path, query string
	body        []byte
}

func (rc *recorder) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	body, _ := io.ReadAll(r.Body)
	r.Body = io.NopCloser(bytes.NewReader(body))
	rc.mu.Lock()
	rc.reqs = append(rc.reqs, recorded{path: r.URL.Path, query: r.URL.RawQuery, body: body})
	rc.mu.Unlock()
	rc.h.ServeHTTP(w, r)
}

func (rc *recorder) take() []recorded {
	rc.mu.Lock()
	defer rc.mu.Unlock()
	out := rc.reqs
	rc.reqs = nil
	return out
}

// serveOnce drives a handler in-process and returns status and body.
func serveOnce(h http.Handler, method, target string, body []byte) (int, []byte) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	w := httptest.NewRecorder()
	h.ServeHTTP(w, httptest.NewRequest(method, target, rd))
	return w.Code, w.Body.Bytes()
}

func wantSame(t *testing.T, what string, gotStatus int, got []byte, wantStatus int, want []byte) {
	t.Helper()
	if gotStatus != wantStatus || !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %d %s\nwant %d %s", what, gotStatus, got, wantStatus, want)
	}
}

// diffCluster is the differential's fixture: three window owners, each
// behind a recorder; node 0's "h" is WAVE-AA2D, which has no error
// model, so it answers unbounded when no budget forces a fallback;
// node 1 holds no records (exact zeros).
type diffCluster struct {
	counts  []int64
	servers []*serve.Server
	nodes   []http.Handler // the node front doors, unrecorded
	recs    []*recorder
	topo    *Topology
	router  *Router
	front   http.Handler
}

func newDiffCluster(t *testing.T, rng *rand.Rand, dead bool) *diffCluster {
	t.Helper()
	const n = 96
	c := &diffCluster{counts: make([]int64, n)}
	windows := evenWindows(n, 3)
	for v := range c.counts {
		if v < windows[1].Lo || v > windows[1].Hi {
			c.counts[v] = int64(rng.Intn(40))
		}
	}
	var nodes []Node
	for i, w := range windows {
		id := fmt.Sprintf("n%d", i)
		if dead && i == 2 {
			ts := httptest.NewServer(nil)
			ts.Close() // connection refused from now on
			nodes = append(nodes, Node{ID: id, Addr: ts.URL, Window: w})
			continue
		}
		eng, err := engine.New(id, n)
		if err != nil {
			t.Fatal(err)
		}
		owned := make([]int64, n)
		copy(owned[w.Lo:w.Hi+1], c.counts[w.Lo:w.Hi+1])
		if err := eng.Load(owned); err != nil {
			t.Fatal(err)
		}
		specs := clusterSpecs()
		if i == 0 {
			specs[0].Options = build.Options{Method: build.WaveAA2D, BudgetWords: 16}
		}
		// No automatic republish: the handler and its reference see the
		// same snapshot and the same planner paths.
		s, err := serve.New(eng, specs, serve.Config{Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		h := serve.NewHandler(s, serve.NewMetrics())
		rec := &recorder{h: h}
		ts := httptest.NewServer(rec)
		t.Cleanup(func() { ts.Close(); s.Close() })
		c.servers = append(c.servers, s)
		c.nodes = append(c.nodes, h)
		c.recs = append(c.recs, rec)
		nodes = append(nodes, Node{ID: id, Addr: ts.URL, Window: w})
	}
	c.topo = &Topology{Domain: n, Nodes: nodes}
	if err := c.topo.validate(); err != nil {
		t.Fatal(err)
	}
	c.router = NewRouter(c.topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Attempts: 2, Timeout: time.Second})
	t.Cleanup(c.router.Close)
	c.router.CheckHealth()
	c.takeAll() // the health sweep's probes
	c.front = NewHandler(c.router, serve.NewMetrics())
	return c
}

func (c *diffCluster) takeAll() [][]recorded {
	out := make([][]recorded, len(c.recs))
	for i, rc := range c.recs {
		out[i] = rc.take()
	}
	return out
}

// randFloat draws budgets and values with the edge cases the encoders
// must agree on: ±0, tiny, huge, fractional.
func randFloat(rng *rand.Rand) float64 {
	switch rng.Intn(7) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return 5e-324
	case 3:
		return 1e300
	default:
		return math.Round(rng.Float64()*1e4) / 8
	}
}

// randQuery draws GET /query parameters; bad ones appear rarely.
func randQuery(rng *rand.Rand, n int) url.Values {
	v := url.Values{}
	a := rng.Intn(n+20) - 10
	v.Set("a", strconv.Itoa(a))
	v.Set("b", strconv.Itoa(a+rng.Intn(n)-5))
	switch rng.Intn(6) {
	case 0:
		v.Set("metric", "SUM")
	case 1:
		v.Set("metric", "count")
	case 2:
		v.Set("metric", "")
	}
	switch rng.Intn(5) {
	case 0:
		v.Set("syn", "h")
	case 1:
		v.Set("syn", "s")
	case 2:
		v.Set("syn", "")
	}
	switch rng.Intn(5) {
	case 0:
		v.Set("maxerr", "0")
	case 1:
		v.Set("maxerr", "-0")
	case 2:
		v.Set("maxerr", strconv.FormatFloat(randFloat(rng), 'g', -1, 64))
	}
	if rng.Intn(8) == 0 {
		switch rng.Intn(5) {
		case 0:
			v.Set("a", "x")
		case 1:
			v.Del("b")
		case 2:
			v.Set("maxerr", "-1")
		case 3:
			v.Set("metric", "MEDIAN")
		default:
			v.Set("syn", "nope")
		}
	}
	return v
}

// randBatch draws a POST /query/batch body, written the way clients
// write it: keys present or absent, empty or set.
func randBatch(rng *rand.Rand, n int) []byte {
	m := map[string]any{}
	ranges := make([][2]int, rng.Intn(12))
	for i := range ranges {
		a := rng.Intn(n+20) - 10
		ranges[i] = [2]int{a, a + rng.Intn(n) - 5}
	}
	m["ranges"] = ranges
	switch rng.Intn(4) {
	case 0:
		m["synopsis"] = "h"
	case 1:
		m["synopsis"] = ""
	case 2:
		m["synopsis"] = "s"
	}
	switch rng.Intn(4) {
	case 0:
		m["metric"] = "SUM"
	case 1:
		m["metric"] = ""
	}
	switch rng.Intn(4) {
	case 0:
		m["maxerr"] = 0.0
	case 1:
		m["maxerr"] = randFloat(rng)
	}
	if rng.Intn(8) == 0 {
		switch rng.Intn(4) {
		case 0:
			m["maxerr"] = -2.5
		case 1:
			m["metric"] = "MEDIAN"
		case 2:
			m["synopsis"] = "nope"
		default:
			return []byte(`{"ranges":[[1,2]`)
		}
	}
	data, _ := json.Marshal(m)
	return data
}

// shapes are the cases the random inputs must reach, found in the
// requests and bodies the test compares.
var shapes = map[string]*regexp.Regexp{
	"nil errs entry":       regexp.MustCompile(`"errs":\[[^\]]*null`),
	"unbounded answer":     regexp.MustCompile(`^\{("partial":(true|false),)?"path"`),
	"partial answer":       regexp.MustCompile(`"partial":true`),
	"absent budget sent":   regexp.MustCompile(`^\{"ranges"|^a=[0-9]+&b=[0-9]+(&metric=\w*)?(&syn=\w*)?$`),
	"zero budget sent":     regexp.MustCompile(`"maxerr":0[,}]|maxerr=0(&|$)`),
	"-0 budget sent":       regexp.MustCompile(`"maxerr":-0[,}]|maxerr=-0(&|$)`),
	"empty synopsis asked": regexp.MustCompile(`"synopsis":""|(^|&)syn=(&|$)`),
	"empty metric asked":   regexp.MustCompile(`"metric":""|(^|&)metric=(&|$)`),
	"node refusal relayed": regexp.MustCompile(`400 Bad Request: `),
}

func tally(seen map[string]int, data ...[]byte) {
	for name, re := range shapes {
		for _, d := range data {
			if re.Match(d) {
				seen[name]++
			}
		}
	}
}

func TestWireDifferential(t *testing.T) {
	seen := make(map[string]int)
	for _, seed := range []int64{1, 2} {
		seed := seed
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			rng := rand.New(rand.NewSource(seed))
			c := newDiffCluster(t, rng, false)
			t.Run("node", func(t *testing.T) { diffNode(t, rng, c, seen) })
			t.Run("router", func(t *testing.T) { diffRouter(t, rng, c, seen) })
			t.Run("partial", func(t *testing.T) { diffRouter(t, rng, newDiffCluster(t, rng, true), seen) })
			t.Run("mutations", func(t *testing.T) { diffMutations(t, rng, c) })
		})
	}
	t.Run("encoders", diffEncoders)
	for name := range shapes {
		if seen[name] == 0 {
			t.Errorf("no input reached the %s case", name)
		}
	}
}

func diffNode(t *testing.T, rng *rand.Rand, c *diffCluster, seen map[string]int) {
	n := c.topo.Domain
	for i, h := range c.nodes {
		s := c.servers[i]
		for k := 0; k < 60; k++ {
			v := randQuery(rng, n)
			code, body := serveOnce(h, http.MethodGet, "/query?"+v.Encode(), nil)
			wantCode, want := refNodeQuery(s, v)
			wantSame(t, "node GET /query?"+v.Encode(), code, body, wantCode, want)
			tally(seen, []byte(v.Encode()), body)

			req := randBatch(rng, n)
			code, body = serveOnce(h, http.MethodPost, "/query/batch", req)
			wantCode, want = refNodeBatch(s, req)
			wantSame(t, fmt.Sprintf("node POST /query/batch %s", req), code, body, wantCode, want)
			tally(seen, req, body)
		}

		snap := s.Snapshot()
		code, body := serveOnce(h, http.MethodGet, "/health", nil)
		wantSame(t, "node GET /health", code, body, http.StatusOK, refEncode(map[string]any{
			"status": "ok", "domain": snap.Domain, "records": snap.Records,
			"version": snap.Version, "rebuilds": s.Rebuilds(), "synopses": snap.Names(),
		}))

		code, body = serveOnce(h, http.MethodPost, "/rebuild", nil)
		wantSame(t, "node POST /rebuild", code, body, http.StatusOK, refEncode(map[string]any{
			"version": s.Snapshot().Version, "rebuilds": s.Rebuilds(),
		}))

		// Spans change between two reads, so /trace is compared by its
		// envelope: the same parts re-encoded through the reference.
		code, body = serveOnce(h, http.MethodGet, "/trace", nil)
		var parts map[string]json.RawMessage
		if err := json.Unmarshal(body, &parts); err != nil || len(parts) != 2 {
			t.Fatalf("node GET /trace: %s", body)
		}
		wantSame(t, "node GET /trace", code, body, http.StatusOK, refEncode(map[string]any{
			"spans": parts["spans"], "slow_ops": parts["slow_ops"],
		}))

		for _, bad := range []struct{ method, target string }{
			{http.MethodPost, "/query?a=0&b=1"}, {http.MethodGet, "/query/batch"}, {http.MethodPut, "/health"},
		} {
			code, body = serveOnce(h, bad.method, bad.target, nil)
			wantSame(t, bad.method+" "+bad.target, code, body, http.StatusMethodNotAllowed,
				refError(fmt.Errorf("method %s not allowed", bad.method)))
		}
		code, body = serveOnce(h, http.MethodGet, "/synopsis?name=nope", nil)
		_, err := s.Snapshot().Synopsis("nope")
		wantSame(t, "node GET /synopsis?name=nope", code, body, http.StatusNotFound, refError(err))
	}
	c.takeAll()
}

func diffRouter(t *testing.T, rng *rand.Rand, c *diffCluster, seen map[string]int) {
	n := c.topo.Domain
	for k := 0; k < 80; k++ {
		v := randQuery(rng, n)
		code, body := serveOnce(c.front, http.MethodGet, "/query?"+v.Encode(), nil)
		sent := c.takeAll()
		wantCode, want := refRoutedQuery(c.router, v)
		c.takeAll()
		wantSame(t, "router GET /query?"+v.Encode(), code, body, wantCode, want)
		tally(seen, []byte(v.Encode()), body)
		for _, reqs := range sent {
			for _, r := range reqs {
				sub, _ := url.ParseQuery(r.query)
				tally(seen, []byte(r.query))
				if r.path != "/query" || r.query != refSubQuery(sub, v) {
					t.Fatalf("router → node %s?%s, want /query?%s", r.path, r.query, refSubQuery(sub, v))
				}
			}
		}

		req := randBatch(rng, n)
		code, body = serveOnce(c.front, http.MethodPost, "/query/batch", req)
		sent = c.takeAll()
		wantCode, want = refRoutedBatch(c.router, req)
		c.takeAll()
		wantSame(t, fmt.Sprintf("router POST /query/batch %s", req), code, body, wantCode, want)
		tally(seen, req, body)
		var client refBatchBody
		_ = json.Unmarshal(req, &client)
		for _, reqs := range sent {
			for _, r := range reqs {
				tally(seen, r.body)
				if want := refSubBatch(t, r.body, client); r.path != "/query/batch" || !bytes.Equal(r.body, want) {
					t.Fatalf("router → node %s %s, want /query/batch %s", r.path, r.body, want)
				}
			}
		}
	}

	ready := c.router.Ready()
	status := map[bool]int{true: http.StatusOK, false: http.StatusServiceUnavailable}[ready]
	code, body := serveOnce(c.front, http.MethodGet, "/healthz", nil)
	wantSame(t, "router GET /healthz", code, body, status, refEncode(map[string]any{
		"status": map[bool]string{true: "ok", false: "degraded"}[ready],
		"ready":  ready, "role": "router", "nodes": c.router.NodeHealths(),
	}))
	code, body = serveOnce(c.front, http.MethodGet, "/topology", nil)
	wantSame(t, "router GET /topology", code, body, http.StatusOK, refEncode(c.router.Topology()))
	code, body = serveOnce(c.front, http.MethodGet, "/metrics", nil)
	var parts map[string]json.RawMessage
	if err := json.Unmarshal(body, &parts); err != nil || len(parts) != 1 {
		t.Fatalf("router GET /metrics: %s", body)
	}
	wantSame(t, "router GET /metrics", code, body, http.StatusOK, refEncode(map[string]any{"endpoints": parts["endpoints"]}))
	code, body = serveOnce(c.front, http.MethodPost, "/query", nil)
	wantSame(t, "router POST /query", code, body, http.StatusMethodNotAllowed, refError(fmt.Errorf("method POST not allowed")))
}

// diffMutations forwards random ingests and loads through the router
// and checks the router's answer, each node's share of the request, and
// each node's own answer to that share.
func diffMutations(t *testing.T, rng *rand.Rand, c *diffCluster) {
	n := c.topo.Domain
	owner := func(v int) int {
		for i, node := range c.topo.Nodes {
			if v >= node.Window.Lo && v <= node.Window.Hi {
				return i
			}
		}
		return -1
	}
	for k := 0; k < 20; k++ {
		var inserts, deletes []refMutation
		ins := make([][]refMutation, len(c.topo.Nodes))
		dels := make([][]refMutation, len(c.topo.Nodes))
		for j := rng.Intn(6); j > 0; j-- {
			mu := refMutation{Value: rng.Intn(n), Count: int64(1 + rng.Intn(9))}
			inserts = append(inserts, mu)
			ins[owner(mu.Value)] = append(ins[owner(mu.Value)], mu)
			if rng.Intn(2) == 0 { // deletes follow the inserts on the node
				deletes = append(deletes, mu)
				dels[owner(mu.Value)] = append(dels[owner(mu.Value)], mu)
			}
		}
		body := map[string]any{"inserts": inserts}
		if deletes != nil {
			body["deletes"] = deletes
		}
		req, _ := json.Marshal(body)
		code, got := serveOnce(c.front, http.MethodPost, "/ingest", req)
		var applied []string
		for i := range c.topo.Nodes {
			if len(ins[i])+len(dels[i]) > 0 {
				applied = append(applied, c.topo.Nodes[i].ID)
			}
		}
		wantSame(t, fmt.Sprintf("router POST /ingest %s", req), code, got, http.StatusOK,
			refEncode(map[string]any{"ok": true, "nodes": applied}))
		for i, reqs := range c.takeAll() {
			if len(ins[i])+len(dels[i]) == 0 {
				if len(reqs) != 0 {
					t.Fatalf("node %d got %d requests for no share", i, len(reqs))
				}
				continue
			}
			want, _ := json.Marshal(map[string]any{"inserts": ins[i], "deletes": dels[i]})
			if len(reqs) != 1 || reqs[0].path != "/ingest" || !bytes.Equal(reqs[0].body, want) {
				t.Fatalf("router → node %d: %+v, want /ingest %s", i, reqs, want)
			}
			code, got := serveOnce(c.nodes[i], http.MethodPost, "/ingest", want)
			wantSame(t, "node POST /ingest", code, got, http.StatusOK, refEncode(map[string]any{"ok": true}))
		}
	}

	load := make([]int64, n)
	for v := range load {
		load[v] = int64(rng.Intn(3))
	}
	req, _ := json.Marshal(map[string]any{"counts": load})
	code, got := serveOnce(c.front, http.MethodPost, "/load", req)
	ids := []string{"n0", "n1", "n2"}
	wantSame(t, "router POST /load", code, got, http.StatusOK, refEncode(map[string]any{"ok": true, "nodes": ids}))
	for i, reqs := range c.takeAll() {
		w := c.topo.Nodes[i].Window
		slice := make([]int64, n)
		copy(slice[w.Lo:w.Hi+1], load[w.Lo:w.Hi+1])
		want, _ := json.Marshal(map[string]any{"counts": slice})
		if len(reqs) != 1 || reqs[0].path != "/load" || !bytes.Equal(reqs[0].body, want) {
			t.Fatalf("router → node %d: %+v, want /load %s", i, reqs, want)
		}
	}

	// Refusals keep their status and error text.
	code, got = serveOnce(c.front, http.MethodPost, "/ingest", []byte(`{"inserts":[{"value":999,"count":1}]}`))
	wantSame(t, "router POST /ingest out of domain", code, got, http.StatusBadGateway,
		refError(fmt.Errorf("value 999 is outside the domain [0,%d)", n)))
	code, got = serveOnce(c.front, http.MethodPost, "/load", []byte(`{"counts":[1,2]}`))
	wantSame(t, "router POST /load short", code, got, http.StatusBadRequest,
		refError(fmt.Errorf("load carries 2 counts, topology domain is %d", n)))
	code, got = serveOnce(c.nodes[0], http.MethodPost, "/load", []byte(`{"counts":[1,2]}`))
	wantSame(t, "node POST /load short", code, got, http.StatusBadRequest,
		refError(c.servers[0].Load([]int64{1, 2})))
	code, got = serveOnce(c.nodes[0], http.MethodPost, "/ingest", []byte(`{"inserts":[{"value":-1,"count":1}]}`))
	wantSame(t, "node POST /ingest out of domain", code, got, http.StatusBadRequest,
		refError(c.servers[0].Insert(-1, 1)))
	code, got = serveOnce(c.nodes[0], http.MethodPost, "/ingest", []byte(`{"inserts":`))
	var decodeErr refBatchBody
	err := json.NewDecoder(strings.NewReader(`{"inserts":`)).Decode(&decodeErr)
	wantSame(t, "node POST /ingest garbage", code, got, http.StatusBadRequest,
		refError(fmt.Errorf("decoding ingest request: %w", err)))
	c.takeAll()
}

// diffEncoders compares the typed bodies with the reference maps over
// random field values, ±0 among them — values the handlers above rarely
// produce (no estimator answers −0).
func diffEncoders(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	optFloat := func() *float64 {
		if rng.Intn(3) == 0 {
			return nil
		}
		f := randFloat(rng)
		return &f
	}
	for k := 0; k < 500; k++ {
		value, bound, rigorous := randFloat(rng), randFloat(rng), rng.Intn(2) == 0
		if rng.Intn(3) == 0 {
			bound = math.Inf(1)
		}
		version := rng.Int63n(1 << 40)
		wb, wr := serve.WireBound(bound, rigorous)
		m := refAnswer(value, "probe", "h", bound, rigorous)
		m["version"] = version
		wantSame(t, "QueryAnswer", 0, refEncode(serve.QueryAnswer{Err: wb, Path: "probe", Rigorous: wr,
			Source: "h", Value: value, Version: version}), 0, refEncode(m))

		windows := []WindowReport{{Window: Window{Lo: 0, Hi: 3}, Node: "n0", Status: "failed", Attempts: 2, Err: "x"}}
		versions := map[string]int64{"n1": version}
		partial := rng.Intn(2) == 0
		m = refAnswer(value, "exact", "merged", bound, rigorous)
		m["partial"], m["windows"], m["versions"] = partial, windows, versions
		wantSame(t, "RoutedAnswer", 0, refEncode(RoutedAnswer{Err: wb, Partial: partial, Path: "exact",
			Rigorous: wr, Source: "merged", Value: value, Versions: versions, Windows: windows}), 0, refEncode(m))

		values := make([]float64, rng.Intn(4))
		errs := make([]*float64, len(values))
		served := make([]bool, len(values))
		for i := range values {
			values[i], errs[i], served[i] = randFloat(rng), optFloat(), rng.Intn(2) == 0
		}
		wantSame(t, "BatchAnswer", 0, refEncode(serve.BatchAnswer{Errs: errs, Values: values, Version: version}),
			0, refEncode(map[string]any{"values": values, "errs": errs, "version": version}))
		wantSame(t, "BatchResult", 0, refEncode(BatchResult{Errs: errs, Partial: partial, Served: served,
			Values: values, Versions: versions, Windows: windows}), 0, refEncode(map[string]any{
			"values": values, "errs": errs, "served": served, "partial": partial, "windows": windows, "versions": versions,
		}))

		// The router's sub-request: synopsis, metric and maxerr only when set.
		sub := serve.BatchRequest{MaxErr: optFloat(), Ranges: [][2]int{{rng.Intn(9), 9}}}
		ref := map[string]any{"ranges": sub.Ranges}
		if rng.Intn(2) == 0 {
			sub.Synopsis, ref["synopsis"] = "h", "h"
		}
		if rng.Intn(2) == 0 {
			sub.Metric, ref["metric"] = "SUM", "SUM"
		}
		if sub.MaxErr != nil {
			ref["maxerr"] = *sub.MaxErr
		}
		got, _ := json.Marshal(sub)
		want, _ := json.Marshal(ref)
		wantSame(t, "BatchRequest", 0, got, 0, want)
	}
}
