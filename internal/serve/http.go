package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"
	"strings"
	"time"

	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
)

// NewHandler exposes a Server over HTTP/JSON:
//
//	GET  /health            liveness, data version, synopsis names
//	GET  /healthz           readiness: snapshot version, staleness vs
//	                        MaxLag, replication state; 503 when not ready
//	GET  /checkpoint        stream the newest atomic checkpoint (durable
//	                        nodes only) — the replication pull source
//	GET  /query             one query: ?a=&b=[&syn=][&metric=COUNT|SUM]
//	POST /query/batch       {"synopsis","metric","ranges":[[a,b],...]}
//	POST /ingest            {"inserts":[{"value","count"}],"deletes":[...]}
//	POST /load              {"counts":[...]}
//	POST /rebuild           force a snapshot rebuild now
//	GET  /synopsis          ?name= — synopsis in the synquery wire format
//	POST /synopsis/merge    ?name= — merge a shard's synopsis (wire format body)
//	GET  /metrics           per-endpoint request/error/latency stats (JSON,
//	                        with p50/p95/p99), per-method build timings,
//	                        and the durability gauges when WAL-backed
//	GET  /metrics.prom      the same plus every process-wide obs series in
//	                        Prometheus text exposition format
//	GET  /trace             recent obs spans (newest first) and slow ops
//
// Every response is JSON; errors are {"error": "..."} with an HTTP status.
// All observations land in m (which may be shared with other handlers).
func NewHandler(s *Server, m *Metrics) http.Handler {
	mux := http.NewServeMux()
	handle := func(pattern, method string, fn func(w http.ResponseWriter, r *http.Request) (int, error)) {
		mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
			start := time.Now()
			status, err := 0, error(nil)
			if r.Method != method {
				status = http.StatusMethodNotAllowed
				err = fmt.Errorf("method %s not allowed", r.Method)
			} else {
				status, err = fn(w, r)
			}
			if err != nil {
				writeJSON(w, status, map[string]string{"error": err.Error()})
			}
			m.Observe(strings.TrimPrefix(pattern, "/"), time.Since(start), err != nil)
		})
	}

	handle("/health", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		snap := s.Snapshot()
		resp := map[string]any{
			"status":   "ok",
			"domain":   snap.Domain,
			"records":  snap.Records,
			"version":  snap.Version,
			"rebuilds": s.Rebuilds(),
			"synopses": snap.Names(),
		}
		if err := s.LastError(); err != nil {
			resp["last_rebuild_error"] = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
		return 0, nil
	})

	handle("/healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		h := s.Health()
		status := http.StatusOK
		if !h.Ready {
			// Load balancers and the cluster router key on the status code;
			// the body carries the full readiness detail either way.
			status = http.StatusServiceUnavailable
		}
		writeJSON(w, status, h)
		return 0, nil
	})

	handle("/checkpoint", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		db := s.cfg.WAL
		if db == nil {
			return http.StatusConflict, fmt.Errorf("serve: node is not durable; no checkpoint to stream")
		}
		// Keep replica lag bounded by the pull interval, not the
		// checkpoint cadence: fold any records logged since the last
		// checkpoint into a fresh one before streaming. With nothing new
		// this is free.
		if db.Stats().RecordsSinceCkpt > 0 {
			if err := db.Checkpoint(); err != nil {
				return http.StatusInternalServerError, err
			}
		}
		rc, applied, size, err := db.OpenNewestCheckpoint()
		if err != nil {
			return http.StatusInternalServerError, err
		}
		defer rc.Close()
		w.Header().Set("Content-Type", "application/octet-stream")
		w.Header().Set("Content-Length", strconv.FormatInt(size, 10))
		w.Header().Set("X-Checkpoint-Applied", strconv.FormatUint(applied, 10))
		// Copy errors past the header write are a dead client.
		_, _ = io.Copy(w, rc)
		return 0, nil
	})

	handle("/query", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		q, err := queryFromURL(r)
		if err != nil {
			return http.StatusBadRequest, err
		}
		res, version := s.QueryOne(q)
		if res.Err != nil {
			return http.StatusNotFound, res.Err
		}
		resp := map[string]any{
			"value":   res.Value,
			"version": version,
			"path":    res.Path.String(),
			"source":  res.Source,
		}
		// JSON cannot encode +Inf: a model-less answer simply omits the
		// bound instead of carrying a sentinel.
		if !math.IsInf(res.Bound, 1) {
			resp["err"] = res.Bound
			resp["rigorous"] = res.Rigorous
		}
		writeJSON(w, http.StatusOK, resp)
		return 0, nil
	})

	handle("/query/batch", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req struct {
			Synopsis string   `json:"synopsis"`
			Metric   string   `json:"metric"`
			Ranges   [][2]int `json:"ranges"`
			MaxErr   *float64 `json:"maxerr"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("decoding batch request: %w", err)
		}
		metric, err := engine.ParseMetric(req.Metric)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if req.MaxErr != nil && (*req.MaxErr < 0 || math.IsNaN(*req.MaxErr)) {
			return http.StatusBadRequest, fmt.Errorf("maxerr must be a non-negative number, got %g", *req.MaxErr)
		}
		qs := make([]Query, len(req.Ranges))
		for i, rg := range req.Ranges {
			qs[i] = Query{Synopsis: req.Synopsis, Metric: metric, A: rg[0], B: rg[1], MaxErr: req.MaxErr}
		}
		results, version := s.QueryBatch(qs)
		values := make([]float64, len(results))
		errs := make([]*float64, len(results))
		for i, res := range results {
			if res.Err != nil {
				return http.StatusNotFound, res.Err
			}
			values[i] = res.Value
			if !math.IsInf(res.Bound, 1) {
				bound := res.Bound
				errs[i] = &bound
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"values": values, "errs": errs, "version": version})
		return 0, nil
	})

	handle("/ingest", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req struct {
			Inserts []struct {
				Value int   `json:"value"`
				Count int64 `json:"count"`
			} `json:"inserts"`
			Deletes []struct {
				Value int   `json:"value"`
				Count int64 `json:"count"`
			} `json:"deletes"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("decoding ingest request: %w", err)
		}
		for _, in := range req.Inserts {
			if err := s.Insert(in.Value, in.Count); err != nil {
				return http.StatusBadRequest, err
			}
		}
		for _, del := range req.Deletes {
			if err := s.Delete(del.Value, del.Count); err != nil {
				return http.StatusBadRequest, err
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		return 0, nil
	})

	handle("/load", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req struct {
			Counts []int64 `json:"counts"`
		}
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			return http.StatusBadRequest, fmt.Errorf("decoding load request: %w", err)
		}
		if err := s.Load(req.Counts); err != nil {
			return http.StatusBadRequest, err
		}
		writeJSON(w, http.StatusOK, map[string]any{"ok": true})
		return 0, nil
	})

	handle("/rebuild", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		if err := s.Rebuild(); err != nil {
			return http.StatusInternalServerError, err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"version": s.Snapshot().Version, "rebuilds": s.Rebuilds(),
		})
		return 0, nil
	})

	handle("/synopsis", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		syn, err := s.Snapshot().Synopsis(r.URL.Query().Get("name"))
		if err != nil {
			return http.StatusNotFound, err
		}
		if d, err := method.Lookup(syn.Options.Method); err == nil && !d.Caps.Has(method.Serializable) {
			return http.StatusConflict, fmt.Errorf("serve: %s synopses are not serializable", d.Name)
		}
		w.Header().Set("Content-Type", "application/json")
		if err := codec.Write(w, syn.Est); err != nil {
			return http.StatusInternalServerError, err
		}
		return 0, nil
	})

	handle("/synopsis/merge", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		name := r.URL.Query().Get("name")
		est, err := codec.Read(r.Body)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if err := s.MergeSynopsis(name, est); err != nil {
			return http.StatusConflict, err
		}
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "version": s.Snapshot().Version,
		})
		return 0, nil
	})

	handle("/metrics", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		resp := make(map[string]any)
		for name, ep := range m.Snapshot() {
			resp[name] = ep
		}
		if builds := buildSummary(); len(builds) > 0 {
			// Per-method synopsis build histograms (process-wide): how
			// long each family's builds take across all rebuilds so far.
			resp["builds"] = builds
		}
		if s.cfg.WAL != nil {
			// Durability gauges: log traffic, fsync work, checkpoint
			// freshness, and the records replayed at startup.
			resp["durability"] = s.cfg.WAL.Stats()
		}
		if st := segmentStats(); st.Rebuilt+st.Reused+st.SynopsesReused > 0 {
			// Partial-rebuild work avoidance: segments rebuilt vs carried
			// over, and whole synopses reused across snapshot swaps.
			resp["segments"] = st
		}
		if st := ingestStats(); st.RebuildsAvoided+st.Escalated > 0 {
			// Incremental-maintenance ladder: batches absorbed, values
			// re-optimized, boundaries repaired, escalations, and the
			// rebuilds all of that made unnecessary.
			resp["ingest"] = st
		}
		writeJSON(w, http.StatusOK, resp)
		return 0, nil
	})

	handle("/metrics.prom", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		// The handler's endpoint series plus every process-wide series
		// (build phases, DP kernels, WAL durability, pool fan-out).
		if err := obs.WriteText(w, m.Registry(), obs.Default); err != nil {
			return http.StatusInternalServerError, err
		}
		return 0, nil
	})

	handle("/trace", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		writeJSON(w, http.StatusOK, map[string]any{
			"spans":    obs.Recent(),
			"slow_ops": obs.SlowOps(),
		})
		return 0, nil
	})

	return mux
}

// BuildStats is the /metrics "builds" entry for one synopsis method.
type BuildStats struct {
	Count int64   `json:"count"`
	P50Ms float64 `json:"p50_ms"`
	P95Ms float64 `json:"p95_ms"`
	P99Ms float64 `json:"p99_ms"`
	MaxMs float64 `json:"max_ms"`
}

// SegmentStats is the /metrics "segments" block: how much snapshot-
// rebuild work the refresh ladder saved, process-wide. Rebuilt/Reused
// count segments across partial rebuilds; SynopsesReused counts whole
// synopses carried over verbatim because nothing changed for them.
type SegmentStats struct {
	Rebuilt        int64 `json:"rebuilt"`
	Reused         int64 `json:"reused"`
	SynopsesReused int64 `json:"synopses_reused"`
}

func segmentStats() SegmentStats {
	return SegmentStats{
		Rebuilt:        obs.Default.Counter("rangeagg_segment_rebuilt_total").Value(),
		Reused:         obs.Default.Counter("rangeagg_segment_reused_total").Value(),
		SynopsesReused: obs.Default.Counter("rangeagg_synopsis_reused_total").Value(),
	}
}

// IngestStats is the /metrics "ingest" block: one count per
// incremental-maintenance ladder action, process-wide, plus the
// rebuilds those batches made unnecessary (every non-escalated batch is
// one avoided rebuild of its synopsis).
type IngestStats struct {
	Absorbed        int64 `json:"absorbed"`
	Reoptimized     int64 `json:"reoptimized"`
	Repaired        int64 `json:"repaired"`
	Escalated       int64 `json:"escalated"`
	RebuildsAvoided int64 `json:"rebuilds_avoided"`
}

func ingestStats() IngestStats {
	return IngestStats{
		Absorbed:        obs.Default.Counter("rangeagg_ingest_absorbed_total").Value(),
		Reoptimized:     obs.Default.Counter("rangeagg_ingest_reoptimized_total").Value(),
		Repaired:        obs.Default.Counter("rangeagg_ingest_repaired_total").Value(),
		Escalated:       obs.Default.Counter("rangeagg_ingest_escalated_total").Value(),
		RebuildsAvoided: obs.Default.Counter("rangeagg_ingest_rebuilds_avoided_total").Value(),
	}
}

// buildSummary condenses the per-method build histograms recorded by
// internal/build into method → quantile stats.
func buildSummary() map[string]BuildStats {
	out := make(map[string]BuildStats)
	obs.Default.EachHistogram("rangeagg_build_seconds", func(name string, labels []obs.Label, snap obs.HistSnapshot) {
		methodName := ""
		for _, l := range labels {
			if l.Key == "method" {
				methodName = l.Value
			}
		}
		if methodName == "" || snap.Count == 0 {
			return
		}
		out[methodName] = BuildStats{
			Count: snap.Count,
			P50Ms: snap.Quantile(0.50) * 1e3,
			P95Ms: snap.Quantile(0.95) * 1e3,
			P99Ms: snap.Quantile(0.99) * 1e3,
			MaxMs: snap.MaxSeconds * 1e3,
		}
	})
	return out
}

func queryFromURL(r *http.Request) (Query, error) {
	var q Query
	v := r.URL.Query()
	metric, err := engine.ParseMetric(v.Get("metric"))
	if err != nil {
		return q, err
	}
	a, err := strconv.Atoi(v.Get("a"))
	if err != nil {
		return q, fmt.Errorf("parameter a: %w", err)
	}
	b, err := strconv.Atoi(v.Get("b"))
	if err != nil {
		return q, fmt.Errorf("parameter b: %w", err)
	}
	q = Query{Synopsis: v.Get("syn"), Metric: metric, A: a, B: b}
	if me := v.Get("maxerr"); me != "" {
		f, err := strconv.ParseFloat(me, 64)
		if err != nil {
			return q, fmt.Errorf("parameter maxerr: %w", err)
		}
		if f < 0 || math.IsNaN(f) {
			return q, fmt.Errorf("maxerr must be a non-negative number, got %g", f)
		}
		q.MaxErr = &f
	}
	return q, nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be I/O errors on a
	// dead client; there is nothing useful to do with them.
	_ = json.NewEncoder(w).Encode(v)
}
