package serve

import (
	"fmt"
	"io"
	"math"
	"net/http"
	"strconv"

	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
)

// NewHandler exposes a Server over HTTP/JSON; the bodies are the types
// of wire.go:
//
//	GET  /health            Liveness: data version, synopsis names
//	GET  /healthz           HealthStatus: snapshot version, staleness vs
//	                        MaxLag, replication state; 503 when not ready
//	GET  /checkpoint        stream the newest atomic checkpoint (durable
//	                        nodes only) — the replication pull source
//	GET  /query             QueryParams → QueryAnswer
//	POST /query/batch       BatchRequest → BatchAnswer
//	POST /ingest            IngestRequest → Ack
//	POST /load              LoadRequest → Ack
//	POST /rebuild           force a snapshot rebuild now → RebuildReport
//	GET  /synopsis          ?name= — synopsis in the synquery wire format
//	GET  /metrics           MetricsReport: per-endpoint request/error/latency
//	                        stats, per-method build timings, and the
//	                        durability gauges when WAL-backed
//	GET  /metrics.prom      the same plus every process-wide obs series in
//	                        Prometheus text exposition format
//	GET  /trace             TraceReport: recent obs spans (newest first)
//	                        and slow ops
//
// Errors are an ErrorBody with an HTTP status. All observations land in
// m (which may be shared with other handlers).
func NewHandler(s *Server, m *Metrics) http.Handler {
	x := NewMux(m)

	x.Handle("/health", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		snap := s.Snapshot()
		body := Liveness{Domain: snap.Domain, Records: snap.Records, Version: snap.Version,
			Rebuilds: s.Rebuilds(), Synopses: snap.Names(), Status: "ok"}
		if err := s.LastError(); err != nil {
			msg := err.Error()
			body.LastRebuildError = &msg
		}
		return Reply(w, body)
	})

	x.Handle("/healthz", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		h := s.Health()
		status := http.StatusOK
		if !h.Ready {
			// Load balancers and the cluster router key on the status code;
			// the body carries the full readiness detail either way.
			status = http.StatusServiceUnavailable
		}
		WriteJSON(w, status, h)
		return 0, nil
	})

	x.Handle("/checkpoint", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
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

	x.Handle("/query", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		v := r.URL.Query()
		metric, err := engine.ParseMetric(v.Get("metric"))
		if err != nil {
			return http.StatusBadRequest, err
		}
		p, err := ParseQueryParams(v)
		if err != nil {
			return http.StatusBadRequest, err
		}
		res, version := s.QueryOne(Query{Synopsis: p.Synopsis, Metric: metric, A: p.A, B: p.B, MaxErr: p.MaxErr})
		if res.Err != nil {
			return http.StatusNotFound, res.Err
		}
		bound, rigorous := WireBound(res.Bound, res.Rigorous)
		return Reply(w, QueryAnswer{Err: bound, Path: res.Path.String(), Rigorous: rigorous,
			Source: res.Source, Value: res.Value, Version: version})
	})

	x.Handle("/query/batch", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req BatchRequest
		if status, err := ReadRequest(w, r, MaxBatchBody, "batch", &req); err != nil {
			return status, err
		}
		metric, err := engine.ParseMetric(req.Metric)
		if err != nil {
			return http.StatusBadRequest, err
		}
		if err := CheckMaxErr(req.MaxErr); err != nil {
			return http.StatusBadRequest, err
		}
		qs := make([]Query, len(req.Ranges))
		for i, rg := range req.Ranges {
			qs[i] = Query{Synopsis: req.Synopsis, Metric: metric, A: rg[0], B: rg[1], MaxErr: req.MaxErr}
		}
		results, version := s.QueryBatch(qs)
		body := BatchAnswer{Values: make([]float64, len(results)), Errs: make([]*float64, len(results)), Version: version}
		bounds := make([]float64, len(results))
		for i, res := range results {
			if res.Err != nil {
				return http.StatusNotFound, res.Err
			}
			body.Values[i] = res.Value
			if !math.IsInf(res.Bound, 1) {
				bounds[i] = res.Bound
				body.Errs[i] = &bounds[i]
			}
		}
		return Reply(w, body)
	})

	x.Handle("/ingest", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req IngestRequest
		if status, err := ReadRequest(w, r, MaxBatchBody, "ingest", &req); err != nil {
			return status, err
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
		return Reply(w, Ack{OK: true})
	})

	x.Handle("/load", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		var req LoadRequest
		if status, err := ReadRequest(w, r, MaxLoadBody(s.eng.Domain()), "load", &req); err != nil {
			return status, err
		}
		if err := s.Load(req.Counts); err != nil {
			return http.StatusBadRequest, err
		}
		return Reply(w, Ack{OK: true})
	})

	x.Handle("/rebuild", http.MethodPost, func(w http.ResponseWriter, r *http.Request) (int, error) {
		if err := s.Rebuild(); err != nil {
			return http.StatusInternalServerError, err
		}
		return Reply(w, RebuildReport{Version: s.Snapshot().Version, Rebuilds: s.Rebuilds()})
	})

	x.Handle("/synopsis", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
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

	x.Handle("/metrics", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		// Per-method synopsis build histograms (process-wide): how long
		// each family's builds take across all rebuilds so far.
		body := MetricsReport{Endpoints: m.Snapshot(), Builds: buildSummary()}
		if s.cfg.WAL != nil {
			// Durability gauges: log traffic, fsync work, checkpoint
			// freshness, and the records replayed at startup.
			st := s.cfg.WAL.Stats()
			body.Durability = &st
		}
		if st := segmentStats(); st.Rebuilt+st.Reused+st.SynopsesReused > 0 {
			// Partial-rebuild work avoidance: segments rebuilt vs carried
			// over, and whole synopses reused across snapshot swaps.
			body.Segments = &st
		}
		if st := ingestStats(); st.RebuildsAvoided+st.Escalated > 0 {
			// Incremental-maintenance ladder: batches absorbed, values
			// re-optimized, boundaries repaired, escalations, and the
			// rebuilds all of that made unnecessary.
			body.Ingest = &st
		}
		return Reply(w, body)
	})

	x.Handle("/trace", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		return Reply(w, TraceReport{Spans: obs.Recent(), SlowOps: obs.SlowOps()})
	})

	return x
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
