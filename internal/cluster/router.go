package cluster

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"sort"
	"strconv"
	"sync"
	"time"

	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
	"rangeagg/internal/serve"
)

// Router metrics (process-wide): fan-out latency per routed query,
// per-attempt sub-query latency, and the degradation counters the
// cluster dashboards alarm on.
var (
	fanoutSeconds   = obs.Default.Histogram("rangeagg_router_fanout_seconds")
	subquerySeconds = obs.Default.Histogram("rangeagg_router_subquery_seconds")
	subqueriesTotal = obs.Default.Counter("rangeagg_router_subqueries_total")
	retriesTotal    = obs.Default.Counter("rangeagg_router_retries_total")
	failoversTotal  = obs.Default.Counter("rangeagg_router_failovers_total")
	degradedTotal   = obs.Default.Counter("rangeagg_router_degraded_total")
)

// RouterConfig tunes the router; zero values select the defaults.
type RouterConfig struct {
	// Timeout bounds each sub-query attempt (default 2s).
	Timeout time.Duration
	// Attempts caps the attempts per window — the first try plus
	// failover retries across the owner's endpoints (default: one per
	// endpoint plus one, so a flapping primary gets a second chance).
	Attempts int
	// Backoff is the base retry delay; it doubles per attempt with up to
	// 50% jitter (default 25ms).
	Backoff time.Duration
	// HealthEvery is the health-poll interval (default 1s); negative
	// disables the background poller (observations then come only from
	// explicit CheckHealth calls, as in tests).
	HealthEvery time.Duration
}

func (c RouterConfig) withDefaults() RouterConfig {
	if c.Timeout <= 0 {
		c.Timeout = 2 * time.Second
	}
	if c.Backoff <= 0 {
		c.Backoff = 25 * time.Millisecond
	}
	if c.HealthEvery == 0 {
		c.HealthEvery = time.Second
	}
	return c
}

// Query is one routed request: the node's GET /query parameters, with
// the metric as its wire name (the owning nodes validate it).
type Query = serve.QueryParams

// WindowReport says how one window of a routed query was served; the
// partial-answer contract is the list of these. Status is "exact"
// (served with a zero bound), "approx" (served with a nonzero or
// unknown bound), or "failed" (no owner endpoint answered — the merged
// value is missing this window's contribution).
type WindowReport struct {
	Window   Window `json:"range"`
	Node     string `json:"node"`
	Endpoint string `json:"endpoint,omitempty"`
	Status   string `json:"status"`
	// Replica is true when a failover replica (not the primary) served
	// the window.
	Replica  bool   `json:"replica,omitempty"`
	Attempts int    `json:"attempts"`
	Path     string `json:"path,omitempty"`
	Err      string `json:"err,omitempty"`
}

// RouteResult is one merged answer plus the per-window account of how
// it was assembled. When Partial is true some windows failed: Answer
// covers only the served windows and its bound certifies nothing about
// the missing ones — the caller sees exactly which ranges those are.
type RouteResult struct {
	Answer   plan.Answer
	Partial  bool
	Windows  []WindowReport
	Versions map[string]int64
}

// BatchResult is the routed batch answer, and the router's POST
// /query/batch body: per-range values and bounds (nil bound =
// unbounded), Served flags (false when a failed window truncates that
// range's value), and the shared window reports.
type BatchResult struct {
	Errs     []*float64       `json:"errs"`
	Partial  bool             `json:"partial"`
	Served   []bool           `json:"served"`
	Values   []float64        `json:"values"`
	Versions map[string]int64 `json:"versions"`
	Windows  []WindowReport   `json:"windows"`
}

// AppendJSON implements serve.Appender: the bytes json.Marshal writes
// for the result, without reflection.
func (res BatchResult) AppendJSON(b []byte) ([]byte, bool) {
	b, ok := serve.AppendArray(append(b, `{"errs":`...), res.Errs, serve.AppendBound)
	if !ok {
		return b, false
	}
	b = strconv.AppendBool(append(b, `,"partial":`...), res.Partial)
	b, _ = serve.AppendArray(append(b, `,"served":`...), res.Served, func(b []byte, s bool) ([]byte, bool) {
		return strconv.AppendBool(b, s), true
	})
	if b, ok = serve.AppendArray(append(b, `,"values":`...), res.Values, serve.AppendFloat); !ok {
		return b, false
	}
	b = append(b, `,"versions":`...)
	if res.Versions == nil {
		b = append(b, "null"...)
	} else {
		ids := make([]string, 0, len(res.Versions))
		for id := range res.Versions {
			ids = append(ids, id)
		}
		sort.Strings(ids)
		b = append(b, '{')
		for i, id := range ids {
			if i > 0 {
				b = append(b, ',')
			}
			b = append(serve.AppendString(b, id), ':')
			b = strconv.AppendInt(b, res.Versions[id], 10)
		}
		b = append(b, '}')
	}
	b, _ = serve.AppendArray(append(b, `,"windows":`...), res.Windows, appendWindowReport)
	return append(b, '}'), true
}

// appendWindowReport appends w as json.Marshal writes it.
func appendWindowReport(b []byte, w WindowReport) ([]byte, bool) {
	b = strconv.AppendInt(append(b, `{"range":[`...), int64(w.Window.Lo), 10)
	b = strconv.AppendInt(append(b, ','), int64(w.Window.Hi), 10)
	b = serve.AppendString(append(b, `],"node":`...), w.Node)
	if w.Endpoint != "" {
		b = serve.AppendString(append(b, `,"endpoint":`...), w.Endpoint)
	}
	b = serve.AppendString(append(b, `,"status":`...), w.Status)
	if w.Replica {
		b = append(b, `,"replica":true`...)
	}
	b = strconv.AppendInt(append(b, `,"attempts":`...), int64(w.Attempts), 10)
	if w.Path != "" {
		b = serve.AppendString(append(b, `,"path":`...), w.Path)
	}
	if w.Err != "" {
		b = serve.AppendString(append(b, `,"err":`...), w.Err)
	}
	return append(b, '}'), true
}

// Router fans queries out across a topology's segment owners and merges
// the answers. It is stateless apart from health observations: any
// number of routers can front the same topology. Safe for concurrent
// use; Close stops the health poller.
type Router struct {
	topo   *Topology
	cfg    RouterConfig
	client *http.Client
	health *healthTracker

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// NewRouter builds a router over a validated topology and starts its
// health poller (unless disabled).
func NewRouter(topo *Topology, cfg RouterConfig) *Router {
	cfg = cfg.withDefaults()
	client := &http.Client{Timeout: cfg.Timeout}
	r := &Router{
		topo:   topo,
		cfg:    cfg,
		client: client,
		health: newHealthTracker(topo, client),
		stop:   make(chan struct{}),
		done:   make(chan struct{}),
	}
	go r.healthLoop()
	return r
}

// Topology returns the router's validated topology.
func (r *Router) Topology() *Topology { return r.topo }

// Close stops the health poller.
func (r *Router) Close() {
	r.closeOnce.Do(func() { close(r.stop) })
	<-r.done
}

// CheckHealth sweeps every endpoint's /healthz once, synchronously.
func (r *Router) CheckHealth() { r.health.checkAll() }

// NodeHealths reports the latest health observation per endpoint.
func (r *Router) NodeHealths() []NodeHealth { return r.health.snapshot() }

// Ready reports whether every window has at least one endpoint not
// known to be dead — the router's own /healthz readiness.
func (r *Router) Ready() bool {
	for i := range r.topo.Nodes {
		anyUsable := false
		for _, ep := range r.topo.Nodes[i].Endpoints() {
			if nh, ok := r.health.get(ep); !ok || nh.Live {
				anyUsable = true
				break
			}
		}
		if !anyUsable {
			return false
		}
	}
	return true
}

func (r *Router) healthLoop() {
	defer close(r.done)
	if r.cfg.HealthEvery < 0 {
		<-r.stop
		return
	}
	r.health.checkAll()
	tick := time.NewTicker(r.cfg.HealthEvery)
	defer tick.Stop()
	for {
		select {
		case <-r.stop:
			return
		case <-tick.C:
			r.health.checkAll()
		}
	}
}

// maxAttempts resolves the per-window attempt cap for a node.
func (r *Router) maxAttempts(n *Node) int {
	if r.cfg.Attempts > 0 {
		return r.cfg.Attempts
	}
	return len(n.Endpoints()) + 1
}

// backoff sleeps before retry attempt (1-based), exponential with up to
// 50% jitter, honoring cancellation.
func (r *Router) backoff(ctx context.Context, attempt int) {
	d := r.cfg.Backoff << (attempt - 1)
	if max := 2 * time.Second; d > max {
		d = max
	}
	d += time.Duration(rand.Int63n(int64(d)/2 + 1))
	select {
	case <-time.After(d):
	case <-ctx.Done():
	}
}

// permanent reports whether a failed attempt cannot succeed on another
// endpoint: the node refused the request itself (a 4xx), or answered a
// batch with the wrong number of values or errs.
func permanent(err error) bool {
	var se *serve.StatusError
	var pe *permanentError
	return errors.As(err, &pe) || errors.As(err, &se) && se.Permanent()
}

// permanentError is a well-formed answer that retries cannot fix.
type permanentError struct{ msg string }

func (e *permanentError) Error() string { return e.msg }

// fanOut runs each task on its own goroutine and returns once all have
// finished. The router's tasks are network calls that wait rather than
// compute, so they stay off the CPU pool (internal/parallel): there
// they would queue for its few workers, and a hung node's timeout would
// hold back every call behind it. Callers bound the tasks by the
// topology's nodes or endpoints.
func fanOut(tasks ...func()) {
	var wg sync.WaitGroup
	wg.Add(len(tasks))
	for _, task := range tasks {
		go func() {
			defer wg.Done()
			task()
		}()
	}
	wg.Wait()
}

// Route answers one query across the cluster. The merged value is the
// sum of the per-window answers (exact by cum-diff composition over the
// disjoint windows); the merged bound is the sum of the per-window
// bounds. A finite MaxErr is divided across the windows proportionally
// to their widths, so the merged bound meets it whenever every window's
// owner does. Windows whose owner (and replicas) cannot be reached
// within the attempt budget are reported failed and the result is
// Partial — never silently wrong.
//
// An error is returned only when no window was served at all; a partial
// answer is a result, not an error.
func (r *Router) Route(ctx context.Context, q Query) (RouteResult, error) {
	start := time.Now()
	defer func() { fanoutSeconds.Since(start) }()

	res := RouteResult{Versions: make(map[string]int64)}
	a, b, ok := r.topo.Clamp(q.A, q.B)
	if !ok {
		// Fully outside the domain: the exact zero, served by no node.
		res.Answer = plan.MergeAnswers()
		return res, nil
	}
	parts := r.topo.Split(nil, a, b)
	weights := make([]int, len(parts))
	for i, p := range parts {
		weights[i] = p.Window.Width()
	}
	budgets := plan.SplitBudget(make([]float64, 0, len(parts)), planBudget(q.MaxErr), weights)

	answers := make([]plan.Answer, len(parts))
	reports := make([]WindowReport, len(parts))
	versions := make([]int64, len(parts))
	tasks := make([]func(), len(parts))
	for i := range parts {
		i := i
		tasks[i] = func() { answers[i], versions[i], reports[i] = r.subQuery(ctx, q, parts[i], budgets[i]) }
	}
	fanOut(tasks...)

	var ok0 []plan.Answer
	var firstErr string
	for i := range parts {
		res.Windows = append(res.Windows, reports[i])
		if reports[i].Status != "failed" {
			ok0 = append(ok0, answers[i])
			res.Versions[r.topo.Nodes[parts[i].Node].ID] = versions[i]
		} else {
			res.Partial = true
			if firstErr == "" {
				firstErr = reports[i].Err
			}
		}
	}
	res.Answer = plan.MergeAnswers(ok0...)
	if res.Partial {
		degradedTotal.Inc()
		if len(ok0) == 0 {
			return res, fmt.Errorf("cluster: no window served: %s", firstErr)
		}
	}
	return res, nil
}

// planBudget is an optional MaxErr in the planner's convention: NaN
// for no budget.
func planBudget(maxErr *float64) float64 {
	if maxErr == nil {
		return math.NaN()
	}
	return *maxErr
}

// subQuery serves one window from its owner through the failover loop.
func (r *Router) subQuery(ctx context.Context, q Query, p Part, budget float64) (plan.Answer, int64, WindowReport) {
	var ans plan.Answer
	var version int64
	rep := r.failover(ctx, &r.topo.Nodes[p.Node], p.Window, func(ep string) (bool, error) {
		var err error
		ans, version, err = r.queryEndpoint(ctx, ep, q, p.Window, budget)
		return ans.Bound == 0 && ans.Rigorous, err
	})
	if rep.Status != "failed" {
		rep.Path = ans.Path.String()
	}
	return ans, version, rep
}

// failover is the router's one retry loop: it runs attempt against a
// node's endpoints in health order, with backoff between tries, until
// one succeeds, the attempt cap is reached, or a permanent error stops
// it. attempt reports whether its answer was exact. The report covers
// window w; its Status is "failed" when no attempt succeeded.
func (r *Router) failover(ctx context.Context, node *Node, w Window, attempt func(endpoint string) (bool, error)) WindowReport {
	rep := WindowReport{Window: w, Node: node.ID}
	endpoints := r.health.order(node.Endpoints())
	maxAttempts := r.maxAttempts(node)
	for i := 0; i < maxAttempts; i++ {
		if i > 0 {
			retriesTotal.Inc()
			r.backoff(ctx, i)
			if ctx.Err() != nil {
				rep.Status, rep.Err = "failed", ctx.Err().Error()
				return rep
			}
		}
		ep := endpoints[i%len(endpoints)]
		rep.Attempts = i + 1
		exact, err := attempt(ep)
		if err == nil {
			rep.Endpoint, rep.Replica, rep.Status = ep, ep != node.Addr, "approx"
			if exact {
				rep.Status = "exact"
			}
			if rep.Replica {
				failoversTotal.Inc()
			}
			return rep
		}
		rep.Err = err.Error()
		if permanent(err) {
			break
		}
	}
	rep.Status = "failed"
	return rep
}

// queryEndpoint performs one GET /query attempt against one endpoint.
func (r *Router) queryEndpoint(ctx context.Context, endpoint string, q Query, w Window, budget float64) (plan.Answer, int64, error) {
	start := time.Now()
	subqueriesTotal.Inc()
	defer func() { subquerySeconds.Since(start) }()

	sub := serve.QueryParams{Synopsis: q.Synopsis, Metric: q.Metric, A: w.Lo, B: w.Hi}
	if !math.IsNaN(budget) {
		sub.MaxErr = &budget
	}
	var body serve.QueryAnswer
	if err := r.call(ctx, endpoint, "/query?"+sub.Encode(), nil, &body); err != nil {
		return plan.Answer{}, 0, err
	}
	return body.Answer(), body.Version, nil
}

// maxAck bounds how much of an answer call reads and discards.
const maxAck = 4096

// call is the router's one request path to a node: a GET of path, or a
// POST of body as JSON when body is non-nil. A non-200 answer is a
// *serve.StatusError; a 200 answer is decoded into out (a zero value)
// when out is non-nil, and otherwise read to EOF, so net/http keeps the
// keep-alive connection. A *serve.BatchAnswer is asked for in its
// binary encoding and decoded by the answer's Content-Type.
func (r *Router) call(ctx context.Context, endpoint, path string, body, out any) error {
	method, rd := http.MethodGet, io.Reader(nil)
	if body != nil {
		data, err := serve.MarshalJSON(body)
		if err != nil {
			return err
		}
		method, rd = http.MethodPost, bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, endpoint+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if _, ok := out.(*serve.BatchAnswer); ok {
		req.Header.Set("Accept", serve.BatchMediaType)
	}
	resp, err := r.client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if err := serve.CheckResponse(resp); err != nil {
		return err
	}
	if out == nil {
		// The write was applied; a failed read of its acknowledgement
		// only costs the connection.
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, maxAck))
		return nil
	}
	if err := serve.ReadAnswer(resp, out); err != nil {
		return fmt.Errorf("decoding answer from %s: %w", endpoint, err)
	}
	return nil
}

// RouteBatch answers a batch of ranges (sharing one synopsis, metric,
// and budget, like the node batch API) across the cluster with one
// batched sub-request per owning node: R ranges over K nodes cost at
// most K·(1+retries) HTTP round-trips, not R·K. Each range's budget is
// split across its windows by width; a node receives the minimum of its
// sub-range budgets (batch sub-requests carry one budget), which is
// conservative — every sub-range bound then fits its own share, so each
// merged range bound meets the whole budget.
func (r *Router) RouteBatch(ctx context.Context, synopsis, metric string, ranges [][2]int, maxErr *float64) (BatchResult, error) {
	start := time.Now()
	defer func() { fanoutSeconds.Since(start) }()

	res := BatchResult{
		Values:   make([]float64, len(ranges)),
		Errs:     make([]*float64, len(ranges)),
		Served:   make([]bool, len(ranges)),
		Versions: make(map[string]int64),
	}
	bounds := make([]float64, len(ranges)) // accumulating per-range bound
	rigorous := make([]bool, len(ranges))
	for i := range ranges {
		res.Served[i], rigorous[i] = true, true
	}

	// Split every range and group the parts per owning node; the split
	// reuses one set of buffers across ranges.
	type subRange struct {
		rangeIdx int
		w        Window
		budget   float64
	}
	perNode := make([][]subRange, len(r.topo.Nodes))
	var parts []Part
	var weights []int
	var budgets []float64
	for i, rg := range ranges {
		a, b, ok := r.topo.Clamp(rg[0], rg[1])
		if !ok {
			continue // exact zero, no node involved
		}
		parts, weights = r.topo.Split(parts[:0], a, b), weights[:0]
		for _, p := range parts {
			weights = append(weights, p.Window.Width())
		}
		budgets = plan.SplitBudget(budgets[:0], planBudget(maxErr), weights)
		for j, p := range parts {
			perNode[p.Node] = append(perNode[p.Node], subRange{rangeIdx: i, w: p.Window, budget: budgets[j]})
		}
	}

	answers := make([]serve.BatchAnswer, len(r.topo.Nodes))
	reports := make([]WindowReport, len(r.topo.Nodes))
	var tasks []func()
	for ni := range r.topo.Nodes {
		if len(perNode[ni]) == 0 {
			continue
		}
		ni := ni
		tasks = append(tasks, func() {
			subs := perNode[ni]
			subRanges := make([][2]int, len(subs))
			budget := math.NaN()
			for j, s := range subs {
				subRanges[j] = [2]int{s.w.Lo, s.w.Hi}
				if !math.IsNaN(s.budget) && (math.IsNaN(budget) || s.budget < budget) {
					budget = s.budget
				}
			}
			answers[ni], reports[ni] = r.batchNode(ctx, ni, synopsis, metric, subRanges, budget)
		})
	}
	fanOut(tasks...)

	var firstErr string
	anyServed := false
	for ni := range r.topo.Nodes {
		subs := perNode[ni]
		if len(subs) == 0 {
			continue
		}
		res.Windows = append(res.Windows, reports[ni])
		if reports[ni].Status == "failed" {
			res.Partial = true
			if firstErr == "" {
				firstErr = reports[ni].Err
			}
			for _, s := range subs {
				res.Served[s.rangeIdx] = false
			}
			continue
		}
		anyServed = true
		ans := &answers[ni]
		res.Versions[r.topo.Nodes[ni].ID] = ans.Version
		for j, s := range subs {
			res.Values[s.rangeIdx] += ans.Values[j]
			if ans.Errs[j] == nil {
				bounds[s.rangeIdx] = math.Inf(1)
				rigorous[s.rangeIdx] = false
			} else {
				bounds[s.rangeIdx] += *ans.Errs[j]
			}
		}
	}
	for i := range ranges {
		if res.Served[i] && !math.IsInf(bounds[i], 1) && rigorous[i] {
			res.Errs[i] = &bounds[i]
		}
	}
	if res.Partial {
		degradedTotal.Inc()
		if !anyServed {
			return res, fmt.Errorf("cluster: no window served: %s", firstErr)
		}
	}
	return res, nil
}

// batchNode sends one node its batched sub-ranges through the failover
// loop. The report covers the node's whole owned window (its sub-ranges
// all lie inside it).
func (r *Router) batchNode(ctx context.Context, ni int, synopsis, metric string, subRanges [][2]int, budget float64) (serve.BatchAnswer, WindowReport) {
	node := &r.topo.Nodes[ni]
	var ans serve.BatchAnswer
	rep := r.failover(ctx, node, node.Window, func(ep string) (bool, error) {
		var err error
		ans, err = r.batchEndpoint(ctx, ep, synopsis, metric, subRanges, budget)
		for _, e := range ans.Errs {
			if e == nil || *e != 0 {
				return false, err
			}
		}
		return true, err
	})
	return ans, rep
}

// batchEndpoint performs one POST /query/batch attempt.
func (r *Router) batchEndpoint(ctx context.Context, endpoint, synopsis, metric string, subRanges [][2]int, budget float64) (serve.BatchAnswer, error) {
	start := time.Now()
	subqueriesTotal.Inc()
	defer func() { subquerySeconds.Since(start) }()

	sub := serve.BatchRequest{Metric: metric, Ranges: subRanges, Synopsis: synopsis}
	if !math.IsNaN(budget) {
		sub.MaxErr = &budget
	}
	var body serve.BatchAnswer
	if err := r.call(ctx, endpoint, "/query/batch", sub, &body); err != nil {
		return serve.BatchAnswer{}, err
	}
	if len(body.Values) != len(subRanges) {
		return serve.BatchAnswer{}, &permanentError{msg: fmt.Sprintf("%s returned %d values for %d ranges", endpoint, len(body.Values), len(subRanges))}
	}
	if body.Errs != nil && len(body.Errs) != len(subRanges) {
		return serve.BatchAnswer{}, &permanentError{msg: fmt.Sprintf("%s returned %d errs for %d ranges", endpoint, len(body.Errs), len(subRanges))}
	}
	if body.Errs == nil {
		body.Errs = make([]*float64, len(subRanges))
	}
	return body, nil
}
