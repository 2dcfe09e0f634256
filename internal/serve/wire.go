package serve

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"time"

	"rangeagg/internal/obs"
	"rangeagg/internal/plan"
	"rangeagg/internal/wal"
)

// This file is the node's HTTP wire format, declared once: every JSON
// body its handlers read or write, the GET /query URL codec, the check a
// client runs on an answer, and the handler frame. The cluster router
// and synquery speak the node's format through these declarations.
//
// Response fields are declared in sorted key order, the order in which
// encoding/json writes map keys: that keeps the bytes these bodies had
// when they were encoded from maps, which a differential test in
// internal/cluster pins. A key that is sometimes absent is a pointer (or
// a string, map or slice left empty) with omitempty.

// QueryParams is the URL surface of GET /query:
// ?a=&b=[&syn=][&metric=][&maxerr=]. Metric stays its wire name: a node
// resolves it, a router forwards it to the owning nodes.
type QueryParams struct {
	Synopsis string
	Metric   string
	A, B     int
	MaxErr   *float64
}

// ParseQueryParams decodes the URL parameters of GET /query.
func ParseQueryParams(v url.Values) (QueryParams, error) {
	a, err := strconv.Atoi(v.Get("a"))
	if err != nil {
		return QueryParams{}, fmt.Errorf("parameter a: %w", err)
	}
	b, err := strconv.Atoi(v.Get("b"))
	if err != nil {
		return QueryParams{}, fmt.Errorf("parameter b: %w", err)
	}
	p := QueryParams{Synopsis: v.Get("syn"), Metric: v.Get("metric"), A: a, B: b}
	if me := v.Get("maxerr"); me != "" {
		f, err := strconv.ParseFloat(me, 64)
		if err != nil {
			return p, fmt.Errorf("parameter maxerr: %w", err)
		}
		p.MaxErr = &f
	}
	return p, CheckMaxErr(p.MaxErr)
}

// Encode renders the parameters as a URL query string, leaving out the
// unset ones.
func (p QueryParams) Encode() string {
	v := url.Values{"a": {strconv.Itoa(p.A)}, "b": {strconv.Itoa(p.B)}}
	if p.Synopsis != "" {
		v.Set("syn", p.Synopsis)
	}
	if p.Metric != "" {
		v.Set("metric", p.Metric)
	}
	if p.MaxErr != nil {
		v.Set("maxerr", strconv.FormatFloat(*p.MaxErr, 'g', -1, 64))
	}
	return v.Encode()
}

// CheckMaxErr rejects a negative or NaN error budget.
func CheckMaxErr(maxErr *float64) error {
	if maxErr != nil && (*maxErr < 0 || math.IsNaN(*maxErr)) {
		return fmt.Errorf("maxerr must be a non-negative number, got %g", *maxErr)
	}
	return nil
}

// QueryAnswer is the GET /query body. Err (the bound) and Rigorous are
// left out together when the answering synopsis has no error model:
// JSON cannot encode +Inf.
type QueryAnswer struct {
	Err      *float64 `json:"err,omitempty"`
	Path     string   `json:"path"`
	Rigorous *bool    `json:"rigorous,omitempty"`
	Source   string   `json:"source"`
	Value    float64  `json:"value"`
	Version  int64    `json:"version"`
}

// WireBound is a bound on the wire: nil, nil for +Inf.
func WireBound(bound float64, rigorous bool) (*float64, *bool) {
	if math.IsInf(bound, 1) {
		return nil, nil
	}
	return &bound, &rigorous
}

// Answer converts a decoded answer back to the planner's form: an absent
// bound is +Inf, and a path name this build does not know reads as a
// probe.
func (q QueryAnswer) Answer() plan.Answer {
	ans := plan.Answer{Value: q.Value, Bound: math.Inf(1), Path: plan.PathProbe, Source: q.Source}
	if q.Err != nil {
		ans.Bound, ans.Rigorous = *q.Err, q.Rigorous != nil && *q.Rigorous
	}
	if p, ok := plan.ParsePath(q.Path); ok {
		ans.Path = p
	}
	return ans
}

// BatchRequest is the POST /query/batch body: ranges sharing one
// synopsis, metric and budget.
type BatchRequest struct {
	MaxErr   *float64 `json:"maxerr,omitempty"`
	Metric   string   `json:"metric,omitempty"`
	Ranges   [][2]int `json:"ranges"`
	Synopsis string   `json:"synopsis,omitempty"`
}

// BatchAnswer is a node's POST /query/batch body: one value and bound per
// range (a nil bound is unbounded), all from one snapshot version.
type BatchAnswer struct {
	Errs    []*float64 `json:"errs"`
	Values  []float64  `json:"values"`
	Version int64      `json:"version"`
}

// Mutation is one POST /ingest entry.
type Mutation struct {
	Value int   `json:"value"`
	Count int64 `json:"count"`
}

// IngestRequest is the POST /ingest body.
type IngestRequest struct {
	Deletes []Mutation `json:"deletes"`
	Inserts []Mutation `json:"inserts"`
}

// LoadRequest is the POST /load body: one count per domain value.
type LoadRequest struct {
	Counts []int64 `json:"counts"`
}

// Ack answers an accepted mutation; POST /synopsis/merge adds the
// version it published.
type Ack struct {
	OK      bool   `json:"ok"`
	Version *int64 `json:"version,omitempty"`
}

// Liveness is the GET /health body.
type Liveness struct {
	Domain           int      `json:"domain"`
	LastRebuildError *string  `json:"last_rebuild_error,omitempty"`
	Rebuilds         int64    `json:"rebuilds"`
	Records          int64    `json:"records"`
	Status           string   `json:"status"`
	Synopses         []string `json:"synopses"`
	Version          int64    `json:"version"`
}

// RebuildReport is the POST /rebuild body.
type RebuildReport struct {
	Rebuilds int64 `json:"rebuilds"`
	Version  int64 `json:"version"`
}

// MetricsReport is the GET /metrics body: per-endpoint stats, plus the
// node's process-wide blocks when they have something to report.
type MetricsReport struct {
	Builds     map[string]BuildStats       `json:"builds,omitempty"`
	Durability *wal.Stats                  `json:"durability,omitempty"`
	Endpoints  map[string]EndpointSnapshot `json:"endpoints"`
	Ingest     *IngestStats                `json:"ingest,omitempty"`
	Segments   *SegmentStats               `json:"segments,omitempty"`
}

// TraceReport is the GET /trace body.
type TraceReport struct {
	SlowOps []obs.SpanData `json:"slow_ops"`
	Spans   []obs.SpanData `json:"spans"`
}

// ErrorBody is every error response: {"error": "..."} with a non-200
// status.
type ErrorBody struct {
	Error string `json:"error"`
}

// StatusError is a non-200 answer. Its message is the status line,
// followed by the ErrorBody text when the body carried one.
type StatusError struct {
	Code int
	Msg  string
}

func (e *StatusError) Error() string { return e.Msg }

// Permanent reports whether retrying cannot help: a 4xx means the server
// refused the request itself.
func (e *StatusError) Permanent() bool { return e.Code >= 400 && e.Code < 500 }

// CheckResponse returns nil for a 200 answer, else a *StatusError read
// from at most 4 KiB of its body.
func CheckResponse(resp *http.Response) error {
	if resp.StatusCode == http.StatusOK {
		return nil
	}
	msg := resp.Status
	var body ErrorBody
	if data, err := io.ReadAll(io.LimitReader(resp.Body, 4096)); err == nil {
		if json.Unmarshal(data, &body) == nil && body.Error != "" {
			msg += ": " + body.Error
		}
	}
	return &StatusError{Code: resp.StatusCode, Msg: msg}
}

// Endpoint serves one request under the Mux frame. It returns (0, nil)
// once it has written its answer, or the status and error the frame
// writes as an ErrorBody.
type Endpoint func(w http.ResponseWriter, r *http.Request) (int, error)

// Mux is the handler frame a node and a router share: each endpoint
// accepts one HTTP method (405 otherwise), its errors are written as an
// ErrorBody, and every request is recorded in Metrics under the
// endpoint's path without its slash ("query/batch").
type Mux struct {
	mux     *http.ServeMux
	metrics *Metrics
}

// NewMux returns a Mux with GET /metrics.prom registered: the mux's
// endpoint series plus every process-wide obs series in Prometheus text
// format.
func NewMux(m *Metrics) *Mux {
	x := &Mux{mux: http.NewServeMux(), metrics: m}
	x.Handle("/metrics.prom", http.MethodGet, func(w http.ResponseWriter, r *http.Request) (int, error) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := obs.WriteText(w, m.Registry(), obs.Default); err != nil {
			return http.StatusInternalServerError, err
		}
		return 0, nil
	})
	return x
}

// Handle registers fn for pattern under the frame.
func (x *Mux) Handle(pattern, method string, fn Endpoint) {
	label := strings.TrimPrefix(pattern, "/")
	x.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		status, err := 0, error(nil)
		if r.Method != method {
			status, err = http.StatusMethodNotAllowed, fmt.Errorf("method %s not allowed", r.Method)
		} else {
			status, err = fn(w, r)
		}
		if err != nil {
			WriteJSON(w, status, ErrorBody{Error: err.Error()})
		}
		x.metrics.Observe(label, time.Since(start), err != nil)
	})
}

// ServeHTTP dispatches to the registered endpoints.
func (x *Mux) ServeHTTP(w http.ResponseWriter, r *http.Request) { x.mux.ServeHTTP(w, r) }

// WriteJSON writes v as a JSON body with the given status, through
// json.Encoder (whose trailing newline is part of the wire bytes).
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Encoding errors past the header write can only be I/O errors on a
	// dead client; there is nothing useful to do with them.
	_ = json.NewEncoder(w).Encode(v)
}

// Reply writes v as a 200 JSON body; an Endpoint returns its result.
func Reply(w http.ResponseWriter, v any) (int, error) {
	WriteJSON(w, http.StatusOK, v)
	return 0, nil
}
