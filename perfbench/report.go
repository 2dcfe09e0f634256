package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// state is a reading of the program's obs series, the Go runtime and the
// WAL counters; two readings bracket the traced window.
type state struct {
	counters map[string]int64
	hists    map[string][2]float64 // count, sum of seconds
	mem      runtime.MemStats
	wal      wal.Stats
}

func seriesKey(name string, labels []obs.Label) string {
	if len(labels) == 0 {
		return name
	}
	parts := make([]string, len(labels))
	for i, l := range labels {
		parts[i] = l.Key + "=" + l.Value
	}
	return name + "{" + strings.Join(parts, ",") + "}"
}

func (b *bench) takeState() state {
	s := state{counters: make(map[string]int64), hists: make(map[string][2]float64)}
	obs.Default.EachCounter("", func(name string, labels []obs.Label, v int64) {
		s.counters[seriesKey(name, labels)] = v
	})
	obs.Default.EachHistogram("", func(name string, labels []obs.Label, h obs.HistSnapshot) {
		s.hists[seriesKey(name, labels)] = [2]float64{float64(h.Count), h.SumSeconds}
	})
	runtime.ReadMemStats(&s.mem)
	if db := b.st.nodes[0].db; db != nil {
		s.wal = db.Stats()
	}
	return s
}

// delta is the difference between two state readings.
type delta struct{ before, after state }

func (d delta) counter(key string) float64 {
	return float64(d.after.counters[key] - d.before.counters[key])
}

func (d delta) count(key string) float64 { return d.after.hists[key][0] - d.before.hists[key][0] }

// mean is the mean observation (seconds) over the window, 0 when none.
func (d delta) mean(keys ...string) float64 {
	var n, sum float64
	for _, k := range keys {
		n += d.after.hists[k][0] - d.before.hists[k][0]
		sum += d.after.hists[k][1] - d.before.hists[k][1]
	}
	if n == 0 {
		return 0
	}
	return sum / n
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

var pathNames = []string{"cache", "probe", "escalate", "exact"}

// layerDef names one per-layer metric and its unit, in report order.
type layerDef struct{ name, unit string }

var layerDefs = []layerDef{
	{"serve.transport_us", "us"}, {"serve.handler_us", "us"}, {"serve.codec_us", "us"}, {"serve.resp_bytes", "bytes"},
	{"serve.query_us", "us"}, {"serve.publish_ms", "ms"}, {"serve.publishes", "count"}, {"serve.ingest_us", "us"},
	{"plan.cache_hit_ratio", "ratio"}, {"plan.answer_ns", "ns"},
	{"plan.share.cache", "ratio"}, {"plan.share.probe", "ratio"}, {"plan.share.escalate", "ratio"}, {"plan.share.exact", "ratio"},
	{"plan.probes_per_answer", "ratio"},
	{"method.estimate_ns.coarse", "ns"}, {"method.estimate_ns.fine", "ns"},
	{"method.bound_ns.coarse", "ns"}, {"method.bound_ns.fine", "ns"}, {"prefix.exact_ns", "ns"},
	{"cluster.self_us", "us"}, {"cluster.subrequest_ms", "ms"}, {"cluster.skew_ms", "ms"},
	{"cluster.retries", "count"}, {"cluster.partial", "count"},
	{"build.construct_s.coarse", "s"}, {"build.construct_s.fine", "s"}, {"build.errmodel_s", "s"}, {"prefix.table_ms", "ms"},
	{"ingest.maintain_ms", "ms"}, {"ingest.absorb", "count"}, {"ingest.reopt", "count"}, {"ingest.repair", "count"},
	{"ingest.escalate", "count"}, {"ingest.avoided_ratio", "ratio"},
	{"wal.append_us", "us"}, {"wal.fsync_us", "us"}, {"wal.bytes_per_write", "bytes"},
	{"wal.checkpoints", "count"}, {"wal.checkpoint_ms", "ms"},
	{"runtime.alloc_kb_per_req", "KB"}, {"runtime.gc_cycles", "count"},
	{"write_p50_ms", "ms"}, {"write_p99_ms", "ms"}, {"visible_lag_p50_ms", "ms"},
	{"host.calib_ms", "ms"}, {"driver.late_p99_ms", "ms"},
	{"trace.overhead_us", "us"}, {"trace.unattributed_ratio", "ratio"},
}

// spanStats are the per-request span self times of the traced window,
// averaged over read requests (microseconds).
type spanStats struct {
	reads                 int
	rt, front, transport  float64
	node, skew            float64
	routerSelf            float64
	fanoutWait            float64 // node union beyond the mean node span
	ingest                float64
	writes                int
	parentOf              map[int]int
	nodeSpans, skewedPair int
}

// analyzeSpans links every span to its request (client → front door →
// nodes) and averages the self times.
func (b *bench) analyzeSpans() spanStats {
	type group struct{ client, front, ingest, write int }
	groups := make(map[int64]*group)
	nodes := make(map[int64][]int)
	spans := b.tr.spans
	for i, s := range spans {
		g := groups[s.Req]
		if g == nil {
			g = &group{client: -1, front: -1, ingest: -1, write: -1}
			groups[s.Req] = g
		}
		switch {
		case s.Name == "client":
			g.client = i
		case s.Name == "client.write":
			g.write = i
		case s.Name == "serve.ingest":
			g.ingest = i
		case strings.HasPrefix(s.Name, "node"):
			nodes[s.Req] = append(nodes[s.Req], i)
		default:
			g.front = i
		}
	}
	st := spanStats{parentOf: make(map[int]int)}
	us := func(i int) float64 { return float64(spans[i].End-spans[i].Start) / 1e3 }
	for req, g := range groups {
		if g.ingest >= 0 && g.write >= 0 {
			st.parentOf[g.ingest] = g.write
			st.ingest += us(g.ingest)
			st.writes++
		}
		if g.client < 0 || g.front < 0 {
			continue
		}
		st.parentOf[g.front] = g.client
		rt, h := us(g.client), us(g.front)
		st.reads++
		st.rt += rt
		st.front += h
		st.transport += rt - h
		ns := nodes[req]
		if len(ns) == 0 {
			continue
		}
		// Node spans inside the router span: the router's self time is
		// what their union leaves uncovered.
		sort.Slice(ns, func(i, j int) bool { return spans[ns[i]].Start < spans[ns[j]].Start })
		var covered, nodeSum, slowest, fastest float64
		var reach int64 = math.MinInt64
		fastest = math.Inf(1)
		for _, i := range ns {
			st.parentOf[i] = g.front
			s := spans[i]
			lo := s.Start
			if lo < reach {
				lo = reach
			}
			if s.End > lo {
				covered += float64(s.End-lo) / 1e3
				reach = s.End
			}
			d := us(i)
			st.node += d
			nodeSum += d
			st.nodeSpans++
			slowest = math.Max(slowest, d)
			fastest = math.Min(fastest, d)
		}
		st.routerSelf += h - covered
		st.fanoutWait += covered - nodeSum/float64(len(ns))
		if len(ns) > 1 {
			st.skew += slowest - fastest
			st.skewedPair++
		}
	}
	if st.reads > 0 {
		n := float64(st.reads)
		st.rt /= n
		st.front /= n
		st.transport /= n
		st.routerSelf /= n
		st.fanoutWait /= n
	}
	if st.nodeSpans > 0 {
		st.node /= float64(st.nodeSpans)
	}
	if st.skewedPair > 0 {
		st.skew /= float64(st.skewedPair)
	}
	if st.writes > 0 {
		st.ingest /= float64(st.writes)
	}
	return st
}

// replayStats are the layer timings the replays measured.
type replayStats struct {
	twinAnswers, twinRequests float64
	twinNs                    float64 // sequential planner time over all replayed answers
	twinPaths                 [4]float64
	twinHits, twinMisses      float64
	srcNs, srcN               [2][2]float64 // [coarse,fine][estimate,bound]
	exactNs, exactN           float64
	construct                 [2]float64 // seconds, coarse and fine
	errModel, tableMs         float64
	// Front door and Server.Query* of sampled requests, in isolation.
	handlerNs, queryNs, isolated float64
}

// isolate replays one sampled request on node n without the network:
// first one untimed Server.QueryOne/QueryBatch so the planner cache is
// warm for both timed calls, then the front door (a fresh
// serve.NewHandler on the same server) into a recorder, then the query
// alone. Their difference is the request's decode, encode and routing
// work inside the handler.
func (r *replayStats) isolate(n *node, h http.Handler, qs []serve.Query, body []byte) {
	query := func() {
		if body == nil {
			n.srv.QueryOne(qs[0])
		} else {
			n.srv.QueryBatch(qs)
		}
	}
	query()
	target := "/query/batch"
	method := http.MethodPost
	if body == nil {
		q := qs[0]
		target = fmt.Sprintf("/query?a=%d&b=%d&maxerr=%s", q.A, q.B, strconv.FormatFloat(*q.MaxErr, 'g', -1, 64))
		method = http.MethodGet
	}
	req := httptest.NewRequest(method, target, bytes.NewReader(body))
	rec := httptest.NewRecorder()
	start := time.Now()
	h.ServeHTTP(rec, req)
	handler := time.Since(start)
	if rec.Code != http.StatusOK {
		return
	}
	start = time.Now()
	query()
	r.queryNs += float64(time.Since(start).Nanoseconds())
	r.handlerNs += float64(handler.Nanoseconds())
	r.isolated++
}

// servingQueries turns ranges under one budget into server queries.
func servingQueries(qs []rangeQ) []serve.Query {
	out := make([]serve.Query, len(qs))
	for i := range qs {
		m := qs[i].MaxErr
		out[i] = serve.Query{Metric: engine.Count, A: qs[i].A, B: qs[i].B, MaxErr: &m}
	}
	return out
}

var sink float64

func sourceIndex(name string) int {
	if name == "coarse" {
		return 0
	}
	return 1
}

// timeSources times each source's Estimate and Bound and the exact
// fallback over ranges on one view.
func (r *replayStats) timeSources(v *plan.View, ranges [][2]int) {
	for _, src := range v.Sources {
		i := sourceIndex(src.Name)
		start := time.Now()
		for _, q := range ranges {
			sink += src.Estimate(q[0], q[1])
		}
		r.srcNs[i][0] += float64(time.Since(start).Nanoseconds())
		start = time.Now()
		for _, q := range ranges {
			bound, _, _ := src.Bound(q[0], q[1])
			sink += bound
		}
		r.srcNs[i][1] += float64(time.Since(start).Nanoseconds())
		r.srcN[i][0] += float64(len(ranges))
		r.srcN[i][1] += float64(len(ranges))
	}
	start := time.Now()
	for _, q := range ranges {
		sink += v.Exact(q[0], q[1])
	}
	r.exactNs += float64(time.Since(start).Nanoseconds())
	r.exactN += float64(len(ranges))
}

// twinQuery feeds one request's ranges to the twin planner, timing the
// whole request.
func (r *replayStats) twinQuery(twin *plan.Planner, v *plan.View, qs []rangeQ) {
	start := time.Now()
	for _, q := range qs {
		ans, err := twin.Query(v, "", q.A, q.B, q.MaxErr)
		if err == nil {
			r.twinPaths[ans.Path]++
		}
	}
	r.twinNs += float64(time.Since(start).Nanoseconds())
	r.twinAnswers += float64(len(qs))
	r.twinRequests++
}

// replay re-runs the traced window's queries into the public entry points
// below the handlers: a twin planner (plan.New with the server's cache
// size) fed the same query stream on the same snapshots, the snapshot
// views' sources and exact tables for sampled requests, and the setup
// builds on the setup counts. It runs after the window's obs reading,
// since the twin records into the same process-wide series.
func (b *bench) replay(tw *window) replayStats {
	var r replayStats
	const cacheEntries = 4096 // serve.Config's default
	switch b.opt.workload {
	case pointHot:
		view := b.st.nodes[0].srv.Snapshot().View(engine.Count)
		twin := plan.New(cacheEntries)
		hs := newHotStream(b.opt.seed, b.pool)
		first := tw.traced[0].draw
		for i := int64(0); i < first; i++ {
			q := hs.next()
			_, _ = twin.Query(view, "", q.A, q.B, q.MaxErr) // warms the twin's cache; the answer is not needed
		}
		c0 := twin.CacheStats()
		var sampled [][2]int
		var isolated []rangeQ
		qs := make([]rangeQ, 1)
		for _, t := range tw.traced {
			for ; first < t.draw; first++ {
				q := hs.next()
				_, _ = twin.Query(view, "", q.A, q.B, q.MaxErr) // a failed read's draw
			}
			qs[0] = hs.next()
			first++
			r.twinQuery(twin, view, qs)
			if b.tr.sampled(t.id) {
				sampled = append(sampled, [2]int{qs[0].A, qs[0].B})
				isolated = append(isolated, qs[0])
			}
		}
		c1 := twin.CacheStats()
		r.twinHits, r.twinMisses = float64(c1.Hits-c0.Hits), float64(c1.Misses-c0.Misses)
		r.timeSources(view, sampled)
		h := serve.NewHandler(b.st.nodes[0].srv, serve.NewMetrics())
		for _, q := range isolated {
			r.isolate(b.st.nodes[0], h, servingQueries([]rangeQ{q}), nil)
		}
	case ingestMixed:
		twin := plan.New(cacheEntries)
		hs := newHotStream(b.opt.seed, b.pool)
		h := serve.NewHandler(b.st.nodes[0].srv, serve.NewMetrics())
		var drawn int64
		qs := make([]rangeQ, batchSize)
		for _, t := range tw.traced {
			for ; drawn < t.draw; drawn++ {
				hs.next()
			}
			for i := range qs {
				q := hs.next()
				qs[i] = rangeQ{A: q.A, B: q.B, MaxErr: ingestMaxErr}
			}
			drawn += batchSize
			snap := b.snaps[t.version]
			if snap == nil {
				continue
			}
			view := snap.View(engine.Count)
			r.twinQuery(twin, view, qs)
			if b.tr.sampled(t.id) {
				ranges := make([][2]int, len(qs))
				for i, q := range qs {
					ranges[i] = [2]int{q.A, q.B}
				}
				r.timeSources(view, ranges)
				r.isolate(b.st.nodes[0], h, servingQueries(qs), batchJSON(ranges, ingestMaxErr))
			}
		}
		c := twin.CacheStats()
		r.twinHits, r.twinMisses = float64(c.Hits), float64(c.Misses)
	case routedScan:
		twins := make([]*plan.Planner, len(b.st.nodes))
		handlers := make([]http.Handler, len(b.st.nodes))
		for i, n := range b.st.nodes {
			twins[i] = plan.New(cacheEntries)
			handlers[i] = serve.NewHandler(n.srv, serve.NewMetrics())
		}
		for _, c := range b.tr.caps {
			var body struct {
				Ranges [][2]int `json:"ranges"`
				MaxErr *float64 `json:"maxerr"`
			}
			if json.Unmarshal(c.body, &body) != nil {
				continue
			}
			maxErr := math.NaN()
			if body.MaxErr != nil {
				maxErr = *body.MaxErr
			}
			qs := make([]rangeQ, len(body.Ranges))
			for i, rg := range body.Ranges {
				qs[i] = rangeQ{A: rg[0], B: rg[1], MaxErr: maxErr}
			}
			view := b.st.nodes[c.node].srv.Snapshot().View(engine.Count)
			r.twinQuery(twins[c.node], view, qs)
			r.timeSources(view, body.Ranges)
			r.isolate(b.st.nodes[c.node], handlers[c.node], servingQueries(qs), c.body)
		}
		for _, t := range twins {
			c := t.CacheStats()
			r.twinHits += float64(c.Hits)
			r.twinMisses += float64(c.Misses)
		}
	}
	// Setup: the builds and tables every node's initial snapshot needed.
	for _, n := range b.st.nodes {
		start := time.Now()
		tab := prefix.NewTable(n.owned)
		r.tableMs += float64(time.Since(start).Nanoseconds()) / 1e6
		for _, sp := range specs() {
			start := time.Now()
			est, err := build.Build(n.owned, build.WithApprox(sp.Options, len(n.owned), 0))
			r.construct[sourceIndex(sp.Name)] += time.Since(start).Seconds()
			if err != nil {
				continue
			}
			if d, err := method.Lookup(sp.Options.Method); err == nil && d.ErrorBound != nil {
				start = time.Now()
				_, _ = d.ErrorBound(tab, est) // only its cost is measured
				r.errModel += time.Since(start).Seconds()
			}
		}
	}
	return r
}

// traceReport turns the traced window into the per-layer metrics and
// writes the spans and the report beside each other.
func (b *bench) traceReport(w, tw *window, before, after state, calib float64) (map[string]metric, error) {
	d := delta{before, after}
	sp := b.analyzeSpans()
	rp := b.replay(tw)
	m := make(map[string]float64)

	batch := b.opt.workload != pointHot
	var queryUs float64
	if batch {
		queryUs = d.mean("rangeagg_serve_query_batch_seconds") * 1e6
	} else {
		var keys []string
		for _, p := range pathNames {
			keys = append(keys, seriesKey("rangeagg_plan_answer_seconds", obs.L("path", p)))
		}
		queryUs = d.mean(keys...) * 1e6
	}
	handler := sp.front
	if b.opt.workload == routedScan {
		handler = sp.node
		m["cluster.self_us"] = sp.routerSelf
		m["cluster.subrequest_ms"] = d.mean("rangeagg_router_subquery_seconds") * 1e3
		m["cluster.skew_ms"] = sp.skew / 1e3
		m["cluster.retries"] = d.counter("rangeagg_router_retries_total")
		m["cluster.partial"] = d.counter("rangeagg_router_degraded_total")
	}
	codecUs := ratio(rp.handlerNs-rp.queryNs, rp.isolated) / 1e3
	m["serve.transport_us"] = sp.transport
	m["serve.handler_us"] = handler
	m["serve.codec_us"] = codecUs
	m["serve.resp_bytes"] = ratio(float64(tw.respBytes), float64(tw.requests))
	m["serve.query_us"] = queryUs
	m["serve.publish_ms"] = d.mean("rangeagg_serve_rebuild_seconds") * 1e3
	m["serve.publishes"] = d.counter("rangeagg_serve_snapshot_swaps_total")
	m["serve.ingest_us"] = sp.ingest

	hits, misses := d.counter("rangeagg_plan_cache_hits_total"), d.counter("rangeagg_plan_cache_misses_total")
	var answers float64
	var byPath [4]float64
	for i, p := range pathNames {
		byPath[i] = d.counter(seriesKey("rangeagg_plan_answers_total", obs.L("path", p)))
		answers += byPath[i]
	}
	m["plan.cache_hit_ratio"] = ratio(hits, hits+misses)
	m["plan.answer_ns"] = ratio(rp.twinNs, rp.twinAnswers)
	for i, p := range pathNames {
		m["plan.share."+p] = ratio(byPath[i], answers)
	}
	m["plan.probes_per_answer"] = ratio(d.counter("rangeagg_plan_probes_total"), answers)
	m["method.estimate_ns.coarse"] = ratio(rp.srcNs[0][0], rp.srcN[0][0])
	m["method.estimate_ns.fine"] = ratio(rp.srcNs[1][0], rp.srcN[1][0])
	m["method.bound_ns.coarse"] = ratio(rp.srcNs[0][1], rp.srcN[0][1])
	m["method.bound_ns.fine"] = ratio(rp.srcNs[1][1], rp.srcN[1][1])
	m["prefix.exact_ns"] = ratio(rp.exactNs, rp.exactN)

	m["build.construct_s.coarse"] = rp.construct[0]
	m["build.construct_s.fine"] = rp.construct[1]
	m["build.errmodel_s"] = rp.errModel
	m["prefix.table_ms"] = rp.tableMs

	absorb := d.counter("rangeagg_ingest_absorbed_total")
	avoided, escalated := d.counter("rangeagg_ingest_rebuilds_avoided_total"), d.counter("rangeagg_ingest_escalated_total")
	m["ingest.maintain_ms"] = d.mean("rangeagg_ingest_maintain_seconds") * 1e3
	m["ingest.absorb"] = absorb
	m["ingest.reopt"] = d.counter("rangeagg_ingest_reoptimized_total")
	m["ingest.repair"] = d.counter("rangeagg_ingest_repaired_total")
	m["ingest.escalate"] = escalated
	m["ingest.avoided_ratio"] = ratio(avoided, avoided+escalated)

	m["wal.append_us"] = d.mean("rangeagg_wal_append_seconds") * 1e6
	m["wal.fsync_us"] = d.mean("rangeagg_wal_fsync_seconds") * 1e6
	m["wal.bytes_per_write"] = ratio(float64(after.wal.Bytes-before.wal.Bytes), float64(after.wal.Appends-before.wal.Appends))
	m["wal.checkpoints"] = float64(after.wal.Checkpoints - before.wal.Checkpoints)
	m["wal.checkpoint_ms"] = d.mean("rangeagg_wal_checkpoint_seconds") * 1e3

	reqs := float64(tw.requests + int64(sp.writes))
	m["runtime.alloc_kb_per_req"] = ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, reqs)
	m["runtime.gc_cycles"] = float64(after.mem.NumGC - before.mem.NumGC)
	if b.opt.workload == ingestMixed {
		lat, late, lag := b.writeStats(tw)
		m["write_p50_ms"] = quantile(lat, .5) / 1e6
		m["write_p99_ms"] = quantile(lat, .99) / 1e6
		m["visible_lag_p50_ms"] = quantile(lag, .5) / 1e6
		m["driver.late_p99_ms"] = quantile(late, .99) / 1e6
	}
	m["host.calib_ms"] = calib

	untracedP50, _, _ := w.sliceStats()
	tracedP50, _, _ := tw.sliceStats()
	untracedP50, tracedP50 = untracedP50/1e3, tracedP50/1e3
	m["trace.overhead_us"] = tracedP50 - untracedP50

	// The ~10% check: a read's end-to-end time against its parts, each
	// measured on its own — client transport and (routed) the router's
	// uncovered time and fan-out wait from the spans, the handler's codec
	// work from the isolated replay, and the query from the server's own
	// Server.Query* timing.
	parts := []part{{"serve.transport_us (client − front door)", sp.transport}}
	if b.opt.workload == routedScan {
		parts = append(parts,
			part{"cluster.self_us (router − node union)", sp.routerSelf},
			part{"fan-out wait (node union − mean node handler)", sp.fanoutWait})
	}
	parts = append(parts,
		part{"serve.codec_us (isolated handler − isolated query)", codecUs},
		part{"serve.query_us (obs Server.Query* mean)", queryUs})
	var sum float64
	for _, p := range parts {
		sum += p.us
	}
	m["trace.unattributed_ratio"] = ratio(sp.rt-sum, sp.rt)

	metrics := make(map[string]metric, len(layerDefs))
	for _, def := range layerDefs {
		metrics[def.name] = metric{Value: m[def.name], Unit: def.unit}
	}
	if err := b.writeTrace(w, tw, sp, rp, d, metrics, parts, sum, untracedP50, tracedP50, answers, byPath); err != nil {
		return nil, err
	}
	return metrics, nil
}

type part struct {
	name string
	us   float64
}

// writeTrace writes <workload>-seed<n>.spans.json (the spans of sampled
// requests, parents linked) and <workload>-seed<n>.report.md beside it.
func (b *bench) writeTrace(w, tw *window, sp spanStats, rp replayStats, d delta, metrics map[string]metric,
	parts []part, sum, untracedP50, tracedP50, answers float64, byPath [4]float64) error {
	if err := os.MkdirAll(b.opt.outDir, 0o755); err != nil {
		return err
	}
	base := filepath.Join(b.opt.outDir, fmt.Sprintf("%s-seed%d", b.opt.workload, b.opt.seed))

	spans := b.tr.spans
	keep := make(map[int]int) // old index → new index
	var out []span
	for i, s := range spans {
		if b.tr.sampled(s.Req) {
			keep[i] = len(out)
			out = append(out, s)
		}
	}
	for old, idx := range keep {
		out[idx].Parent = -1
		if p, ok := sp.parentOf[old]; ok {
			if np, ok := keep[p]; ok {
				out[idx].Parent = np
			}
		}
	}
	data, err := json.Marshal(map[string]any{
		"workload": b.opt.workload, "seed": b.opt.seed, "sample_every": b.tr.sampleEvery, "spans": out,
	})
	if err != nil {
		return err
	}
	if err := os.WriteFile(base+".spans.json", data, 0o644); err != nil {
		return err
	}

	var r strings.Builder
	fmt.Fprintf(&r, "# perfbench traced run: %s, seed %d\n\n", b.opt.workload, b.opt.seed)
	fmt.Fprintf(&r, "Window %.1f s traced after %.1f s untraced. Traced reads: %d (%d with front-door spans); writes: %d. "+
		"Spans of every %dth request are in `%s`.\n\n",
		tw.end.Sub(tw.start).Seconds(), w.end.Sub(w.start).Seconds(), tw.requests, sp.reads, sp.writes,
		b.tr.sampleEvery, filepath.Base(base+".spans.json"))
	fmt.Fprintf(&r, "## Tracing overhead\n\nquery p50 untraced %.2f µs, traced %.2f µs: overhead %+.2f µs (%+.1f%%).\n\n",
		untracedP50, tracedP50, tracedP50-untracedP50, 100*ratio(tracedP50-untracedP50, untracedP50))
	fmt.Fprintf(&r, "## Where a read request's time goes\n\nMean over traced reads; end to end %.2f µs.\n\n| part | µs | share |\n|---|---:|---:|\n", sp.rt)
	for _, p := range parts {
		fmt.Fprintf(&r, "| %s | %.2f | %.1f%% |\n", p.name, p.us, 100*ratio(p.us, sp.rt))
	}
	verdict := "PASS"
	if math.Abs(sp.rt-sum) > 0.1*sp.rt {
		verdict = "FAIL"
	}
	fmt.Fprintf(&r, "| **sum** | %.2f | %.1f%% |\n\nSum check (parts within 10%% of end to end): **%s**, unattributed %+.1f%%.\n\n",
		sum, 100*ratio(sum, sp.rt), verdict, 100*ratio(sp.rt-sum, sp.rt))
	fmt.Fprintf(&r, "Below the handler (replayed on the same snapshots): the twin planner spends %.2f µs per request "+
		"(%.0f ns per answer, sequential) against the server's own %.2f µs per Server.Query call.\n\n",
		ratio(rp.twinNs, rp.twinRequests)/1e3, ratio(rp.twinNs, rp.twinAnswers), metrics["serve.query_us"].Value)
	fmt.Fprintf(&r, "## Planner: live counters vs twin replay\n\n| | cache hit ratio | cache | probe | escalate | exact |\n|---|---:|---:|---:|---:|---:|\n")
	fmt.Fprintf(&r, "| live (%.0f answers) | %.4f | %.4f | %.4f | %.4f | %.4f |\n", answers, metrics["plan.cache_hit_ratio"].Value,
		ratio(byPath[0], answers), ratio(byPath[1], answers), ratio(byPath[2], answers), ratio(byPath[3], answers))
	fmt.Fprintf(&r, "| twin (%.0f answers) | %.4f | %.4f | %.4f | %.4f | %.4f |\n\n", rp.twinAnswers, ratio(rp.twinHits, rp.twinHits+rp.twinMisses),
		ratio(rp.twinPaths[0], rp.twinAnswers), ratio(rp.twinPaths[1], rp.twinAnswers), ratio(rp.twinPaths[2], rp.twinAnswers), ratio(rp.twinPaths[3], rp.twinAnswers))
	fmt.Fprintf(&r, "## Per-layer metrics\n\n| metric | value | unit |\n|---|---:|---|\n")
	for _, def := range layerDefs {
		fmt.Fprintf(&r, "| %s | %.6g | %s |\n", def.name, metrics[def.name].Value, def.unit)
	}
	fmt.Fprintf(&r, "\n## Program counters over the traced window\n\n| series | delta |\n|---|---:|\n")
	var keys []string
	for k := range d.after.counters {
		keys = append(keys, k)
	}
	for k := range d.after.hists {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		if !tracedSeries(k) {
			continue
		}
		if _, ok := d.after.counters[k]; ok {
			if v := d.counter(k); v != 0 {
				fmt.Fprintf(&r, "| %s | %.0f |\n", k, v)
			}
		} else if n := d.count(k); n != 0 {
			fmt.Fprintf(&r, "| %s (count, mean) | %.0f, %.3g s |\n", k, n, d.mean(k))
		}
	}
	return os.WriteFile(base+".report.md", []byte(r.String()), 0o644)
}

// tracedSeries selects the obs series the report lists.
func tracedSeries(key string) bool {
	for _, p := range []string{"rangeagg_plan_", "rangeagg_ingest_", "rangeagg_wal_", "rangeagg_router_",
		"rangeagg_serve_rebuild_seconds", "rangeagg_serve_snapshot_swaps_total", "rangeagg_serve_query_batch_seconds"} {
		if strings.HasPrefix(key, p) {
			return true
		}
	}
	return false
}
