package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/url"
	"strconv"
	"strings"
	"sync"
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

// Ack answers an accepted mutation.
type Ack struct {
	OK bool `json:"ok"`
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

// WriteJSON writes v as a JSON body with the given status: json.Encoder's
// bytes (whose trailing newline is part of the wire bytes), appended into
// a pooled buffer when v is an Appender.
func WriteJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	// Write errors past the header write can only be I/O errors on a
	// dead client; there is nothing useful to do with them.
	if a, ok := v.(Appender); ok {
		bp := getBuf()
		defer putBuf(bp)
		if *bp, ok = a.AppendJSON(*bp); ok {
			*bp = append(*bp, '\n')
			_, _ = w.Write(*bp)
			return
		}
	}
	_ = json.NewEncoder(w).Encode(v)
}

// Reply writes v as a 200 JSON body; an Endpoint returns its result.
func Reply(w http.ResponseWriter, v any) (int, error) {
	WriteJSON(w, http.StatusOK, v)
	return 0, nil
}

// The batch codec. A /query/batch body carries one entry per range, so
// encoding/json reflection used to cost more than the planner behind it.
// BatchRequest and BatchAnswer are instead read whole into a pooled
// buffer (ReadJSON) and scanned, and written by append encoders
// (Appender) through WriteJSON and MarshalJSON; the router's batch
// answer implements Appender with the helpers below. The scanner accepts
// the canonical shape: keys spelled as the encoders spell them, each at
// most once, ASCII strings without escapes, integers that fit, finite
// floats, and null only for a whole slice or an errs entry. Any other
// body goes to json.Decoder over the same bytes, so decoded values and
// error texts stay encoding/json's. Likewise an encoder that meets NaN
// or ±Inf hands the body to encoding/json, whose error is the reference
// behaviour.

// MaxBatchBody bounds a POST /query/batch or /ingest request body, at a
// node and at the router; a larger body is refused with 413.
const MaxBatchBody = 4 << 20

// MaxLoadBody bounds a POST /load request body over a domain of n
// values: 32 bytes per count, enough for any count up to 2^53 with its
// separator and whitespace, plus 4 KiB for the rest.
func MaxLoadBody(n int) int64 { return 32*int64(n) + 4<<10 }

// maxPooled is the largest buffer returned to the codec's pool, so one
// large body does not stay resident once its request is done.
const maxPooled = 64 << 10

var bufPool = sync.Pool{New: func() any { b := make([]byte, 0, 4096); return &b }}

// getBuf returns an empty pooled buffer.
func getBuf() *[]byte { return bufPool.Get().(*[]byte) }

// putBuf returns a buffer to the pool once every reader of it is done.
func putBuf(b *[]byte) {
	if cap(*b) <= maxPooled {
		*b = (*b)[:0]
		bufPool.Put(b)
	}
}

// An Appender is a body with a hand-written encoder. AppendJSON appends
// the bytes json.Marshal writes for the body; ok is false when it cannot
// (a NaN or infinite float), and the caller falls back to encoding/json.
type Appender interface {
	AppendJSON(b []byte) (out []byte, ok bool)
}

// MarshalJSON is json.Marshal, through the body's Appender when it has
// one.
func MarshalJSON(v any) ([]byte, error) {
	if a, ok := v.(Appender); ok {
		bp := getBuf()
		defer putBuf(bp)
		if *bp, ok = a.AppendJSON(*bp); ok {
			return bytes.Clone(*bp), nil
		}
	}
	return json.Marshal(v)
}

// ReadJSON reads r to EOF into a pooled buffer and decodes the bytes
// into v, which must point to a zero value: a *BatchRequest or
// *BatchAnswer in canonical shape through the scanner, anything else
// through json.Decoder.
func ReadJSON(r io.Reader, v any) error {
	bp := getBuf()
	defer putBuf(bp)
	var err error
	if *bp, err = readAll(*bp, r); err != nil {
		return err
	}
	data := *bp
	switch v := v.(type) {
	case *BatchRequest:
		if req, ok := scanBatchRequest(data); ok {
			*v = req
			return nil
		}
	case *BatchAnswer:
		if ans, ok := scanBatchAnswer(data); ok {
			*v = ans
			return nil
		}
	}
	return json.NewDecoder(bytes.NewReader(data)).Decode(v)
}

// readAll appends r's bytes to b until EOF.
func readAll(b []byte, r io.Reader) ([]byte, error) {
	for {
		if len(b) == cap(b) {
			b = append(b, 0)[:len(b)]
		}
		n, err := r.Read(b[len(b):cap(b)])
		b = b[:len(b)+n]
		if err == io.EOF {
			return b, nil
		}
		if err != nil {
			return b, err
		}
	}
}

// ReadRequest reads a request body of at most limit bytes into v (see
// ReadJSON), naming it what in errors: 413 past the bound, 400 when it
// does not decode.
func ReadRequest(w http.ResponseWriter, r *http.Request, limit int64, what string, v any) (int, error) {
	if err := ReadJSON(http.MaxBytesReader(w, r.Body, limit), v); err != nil {
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			return http.StatusRequestEntityTooLarge, fmt.Errorf("%s request body exceeds %d bytes", what, limit)
		}
		return http.StatusBadRequest, fmt.Errorf("decoding %s request: %w", what, err)
	}
	return 0, nil
}

// AppendJSON implements Appender.
func (q BatchRequest) AppendJSON(b []byte) ([]byte, bool) {
	b = append(b, '{')
	if q.MaxErr != nil {
		var ok bool
		if b, ok = AppendFloat(append(b, `"maxerr":`...), *q.MaxErr); !ok {
			return b, false
		}
		b = append(b, ',')
	}
	if q.Metric != "" {
		b = append(AppendString(append(b, `"metric":`...), q.Metric), ',')
	}
	b, _ = AppendArray(append(b, `"ranges":`...), q.Ranges, func(b []byte, r [2]int) ([]byte, bool) {
		b = strconv.AppendInt(append(b, '['), int64(r[0]), 10)
		b = strconv.AppendInt(append(b, ','), int64(r[1]), 10)
		return append(b, ']'), true
	})
	if q.Synopsis != "" {
		b = AppendString(append(b, `,"synopsis":`...), q.Synopsis)
	}
	return append(b, '}'), true
}

// AppendJSON implements Appender.
func (a BatchAnswer) AppendJSON(b []byte) ([]byte, bool) {
	b, ok := AppendArray(append(b, `{"errs":`...), a.Errs, AppendBound)
	if !ok {
		return b, false
	}
	if b, ok = AppendArray(append(b, `,"values":`...), a.Values, AppendFloat); !ok {
		return b, false
	}
	b = strconv.AppendInt(append(b, `,"version":`...), a.Version, 10)
	return append(b, '}'), true
}

// AppendFloat appends f as encoding/json writes a float64: the shortest
// decimal that reads back as f, in exponent form below 1e-6 and from
// 1e21. ok is false for NaN and ±Inf, which JSON cannot carry.
func AppendFloat(b []byte, f float64) ([]byte, bool) {
	if math.IsInf(f, 0) || math.IsNaN(f) {
		return b, false
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	b = strconv.AppendFloat(b, f, format, -1, 64)
	if n := len(b); format == 'e' && n >= 4 && b[n-4] == 'e' && b[n-3] == '-' && b[n-2] == '0' {
		b[n-2] = b[n-1] // e-07 → e-7
		b = b[:n-1]
	}
	return b, true
}

// AppendArray appends xs as encoding/json writes a slice: null when
// nil, else each element by item between brackets. ok is false when an
// element's is.
func AppendArray[T any](b []byte, xs []T, item func([]byte, T) ([]byte, bool)) ([]byte, bool) {
	if xs == nil {
		return append(b, "null"...), true
	}
	b = append(b, '[')
	for i, x := range xs {
		if i > 0 {
			b = append(b, ',')
		}
		var ok bool
		if b, ok = item(b, x); !ok {
			return b, false
		}
	}
	return append(b, ']'), true
}

// AppendBound appends one errs entry: null for a nil bound.
func AppendBound(b []byte, e *float64) ([]byte, bool) {
	if e == nil {
		return append(b, "null"...), true
	}
	return AppendFloat(b, *e)
}

// AppendString appends s as encoding/json writes a string. Printable
// ASCII without quotes, backslashes or HTML metacharacters is copied;
// any other string goes through encoding/json's escaper.
func AppendString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			q, _ := json.Marshal(s) // a string always encodes
			return append(b, q...)
		}
	}
	b = append(append(b, '"'), s...)
	return append(b, '"')
}

// scanBatchRequest decodes a canonical BatchRequest; ok is false for
// any other body.
func scanBatchRequest(data []byte) (req BatchRequest, ok bool) {
	s := scanner{data: data}
	ok = s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "maxerr":
			var f float64
			f, ok = s.float()
			req.MaxErr = &f
		case "metric":
			req.Metric, ok = s.str()
		case "ranges":
			req.Ranges, ok = s.ranges()
		case "synopsis":
			req.Synopsis, ok = s.str()
		}
		return ok
	})
	return req, ok
}

// scanBatchAnswer decodes a canonical BatchAnswer; ok is false for any
// other body.
func scanBatchAnswer(data []byte) (ans BatchAnswer, ok bool) {
	s := scanner{data: data}
	ok = s.object(func(key []byte) (ok bool) {
		switch string(key) {
		case "errs":
			ans.Errs, ok = s.bounds()
		case "values":
			ans.Values, ok = s.floats()
		case "version":
			ans.Version, ok = s.int()
		}
		return ok
	})
	return ans, ok
}

// scanner walks one body in canonical shape. Every method reports false
// on anything outside that shape, and the caller falls back to
// json.Decoder.
type scanner struct {
	data []byte
	pos  int
}

// object scans {"key":value,...}, calling field to scan each value;
// field reports false for an unknown key or a value out of shape. A
// repeated key, or more keys than a batch body has, is not canonical.
// What follows the closing brace is not read, as json.Decoder does not
// read past the value.
func (s *scanner) object(field func(key []byte) bool) bool {
	if !s.next('{') {
		return false
	}
	if s.next('}') {
		return true
	}
	var seen [4][]byte
	for n := 0; ; n++ {
		key, ok := s.key()
		if !ok || !s.next(':') || n == len(seen) {
			return false
		}
		for _, k := range seen[:n] {
			if bytes.Equal(k, key) {
				return false
			}
		}
		seen[n] = key
		if !field(key) {
			return false
		}
		if s.next('}') {
			return true
		}
		if !s.next(',') {
			return false
		}
	}
}

// skipSpace skips JSON whitespace.
func (s *scanner) skipSpace() {
	for s.pos < len(s.data) {
		switch s.data[s.pos] {
		case ' ', '\t', '\n', '\r':
			s.pos++
		default:
			return
		}
	}
}

// next consumes c after any whitespace.
func (s *scanner) next(c byte) bool {
	s.skipSpace()
	if s.pos < len(s.data) && s.data[s.pos] == c {
		s.pos++
		return true
	}
	return false
}

// null consumes a null literal after any whitespace.
func (s *scanner) null() bool {
	s.skipSpace()
	if bytes.HasPrefix(s.data[s.pos:], []byte("null")) {
		s.pos += 4
		return true
	}
	return false
}

// key scans a string of printable ASCII without escapes, returning its
// bytes in place.
func (s *scanner) key() ([]byte, bool) {
	if !s.next('"') {
		return nil, false
	}
	start := s.pos
	for ; s.pos < len(s.data); s.pos++ {
		switch c := s.data[s.pos]; {
		case c == '"':
			s.pos++
			return s.data[start : s.pos-1], true
		case c < 0x20 || c >= 0x7f || c == '\\':
			return nil, false
		}
	}
	return nil, false
}

// str scans a string as key does and copies it out of the body.
func (s *scanner) str() (string, bool) {
	b, ok := s.key()
	return string(b), ok
}

// number scans a JSON number and returns its text; integer reports that
// it has no fraction or exponent.
func (s *scanner) number() (lit []byte, integer, ok bool) {
	s.skipSpace()
	start := s.pos
	if s.pos < len(s.data) && s.data[s.pos] == '-' {
		s.pos++
	}
	if s.pos < len(s.data) && s.data[s.pos] == '0' {
		s.pos++
	} else if !s.digits() {
		return nil, false, false
	}
	integer = true
	if s.pos < len(s.data) && s.data[s.pos] == '.' {
		s.pos++
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	if s.pos < len(s.data) && (s.data[s.pos] == 'e' || s.data[s.pos] == 'E') {
		s.pos++
		if s.pos < len(s.data) && (s.data[s.pos] == '+' || s.data[s.pos] == '-') {
			s.pos++
		}
		if !s.digits() {
			return nil, false, false
		}
		integer = false
	}
	return s.data[start:s.pos], integer, true
}

// digits consumes one or more decimal digits.
func (s *scanner) digits() bool {
	start := s.pos
	for s.pos < len(s.data) && s.data[s.pos] >= '0' && s.data[s.pos] <= '9' {
		s.pos++
	}
	return s.pos > start
}

// int scans an integer that fits an int64.
func (s *scanner) int() (int64, bool) {
	lit, integer, ok := s.number()
	if !ok || !integer {
		return 0, false
	}
	digits := bytes.TrimPrefix(lit, []byte("-"))
	if len(digits) > 18 { // may overflow
		n, err := strconv.ParseInt(string(lit), 10, 64)
		return n, err == nil
	}
	var n int64
	for _, c := range digits {
		n = n*10 + int64(c-'0')
	}
	if len(digits) < len(lit) {
		n = -n
	}
	return n, true
}

// float scans a number that parses as a finite float64.
func (s *scanner) float() (float64, bool) {
	lit, _, ok := s.number()
	if !ok {
		return 0, false
	}
	f, err := strconv.ParseFloat(string(lit), 64)
	return f, err == nil
}

// items estimates the length of the array about to be scanned by
// counting sep up to the first occurrence of end: exact for a canonical
// body, and only a capacity either way. It is capped, so a body that
// will not scan cannot make a large allocation.
func (s *scanner) items(sep byte, end string) int {
	rest := s.data[s.pos:]
	if i := bytes.Index(rest, []byte(end)); i >= 0 {
		rest = rest[:i]
	}
	return min(bytes.Count(rest, []byte{sep})+1, 4096)
}

// array scans [item,...] or null, calling item for each element.
// isNull reports null.
func (s *scanner) array(item func() bool) (isNull, ok bool) {
	if s.null() {
		return true, true
	}
	if !s.next('[') {
		return false, false
	}
	if s.next(']') {
		return false, true
	}
	for {
		if !item() {
			return false, false
		}
		if s.next(']') {
			return false, true
		}
		if !s.next(',') {
			return false, false
		}
	}
}

// ranges scans [[a,b],...] with ints that fit the platform's int.
func (s *scanner) ranges() ([][2]int, bool) {
	out := make([][2]int, 0, s.items(']', "]]"))
	isNull, ok := s.array(func() bool {
		if !s.next('[') {
			return false
		}
		a, ok := s.int()
		if !ok || !s.next(',') {
			return false
		}
		b, ok := s.int()
		if !ok || !s.next(']') || int64(int(a)) != a || int64(int(b)) != b {
			return false
		}
		out = append(out, [2]int{int(a), int(b)})
		return true
	})
	if isNull {
		return nil, ok
	}
	return out, ok
}

// floats scans [f,...] of finite floats.
func (s *scanner) floats() ([]float64, bool) {
	out := make([]float64, 0, s.items(',', "]"))
	isNull, ok := s.array(func() bool {
		f, ok := s.float()
		out = append(out, f)
		return ok
	})
	if isNull {
		return nil, ok
	}
	return out, ok
}

// bounds scans an errs list: finite floats or null entries.
func (s *scanner) bounds() ([]*float64, bool) {
	// NaN marks a null entry while scanning: no JSON number parses to it.
	vals := make([]float64, 0, s.items(',', "]"))
	isNull, ok := s.array(func() bool {
		if s.null() {
			vals = append(vals, math.NaN())
			return true
		}
		f, ok := s.float()
		vals = append(vals, f)
		return ok
	})
	if isNull || !ok {
		return nil, ok
	}
	out := make([]*float64, len(vals))
	for i := range vals {
		if !math.IsNaN(vals[i]) {
			out[i] = &vals[i]
		}
	}
	return out, true
}
