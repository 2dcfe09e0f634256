package main

import (
	"bytes"
	"io"
	"net/http"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// reqHeader carries the benchmark's request id from a client to the
// front-door wrapper, which ties the two spans together.
const reqHeader = "X-Perfbench-Req"

// span is one timed interval recorded by the benchmark's own code. Times
// are nanoseconds since the run's epoch; Parent indexes the span list
// (-1 for a root) and is filled in when the trace is written.
type span struct {
	Name   string `json:"name"`
	Req    int64  `json:"req"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// nodeCapture is the body of one node sub-request the router sent for a
// sampled client request; the traced replay feeds it to the layers below
// that node's handler.
type nodeCapture struct {
	req  int64
	node int
	body []byte
}

// tracer records spans in memory while on. Spans live only in the
// benchmark: client spans around each request, and http.Handler wrapper
// spans around each front door and each node behind the router. Runs
// that measure end-to-end metrics have no tracer (nil), and the wrappers
// then hand requests straight to the program.
type tracer struct {
	epoch time.Time
	on    atomic.Bool
	// cur is the request the single closed-loop reader has in flight; a
	// node span belongs to the router request containing it in time.
	cur         atomic.Int64
	sampleEvery int64

	mu    sync.Mutex
	spans []span
	caps  []nodeCapture
}

func newTracer(sampleEvery int64) *tracer {
	return &tracer{epoch: time.Now(), sampleEvery: sampleEvery}
}

func (t *tracer) since(at time.Time) int64 { return int64(at.Sub(t.epoch)) }

func (t *tracer) sampled(req int64) bool { return req%t.sampleEvery == 0 }

func (t *tracer) record(s span) {
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// wrapFront wraps a client-facing handler; requests carrying reqHeader
// while tracing is on get one span named after the layer (".ingest" for
// writes).
func (t *tracer) wrapFront(layer string, h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		id := r.Header.Get(reqHeader)
		if id == "" || !t.on.Load() {
			h.ServeHTTP(w, r)
			return
		}
		req, _ := strconv.ParseInt(id, 10, 64) // the benchmark wrote it
		name := layer
		if r.URL.Path == "/ingest" {
			name += ".ingest"
		}
		start := time.Now()
		h.ServeHTTP(w, r)
		t.record(span{Name: name, Req: req, Start: t.since(start), End: t.since(time.Now()), Parent: -1})
	})
}

// wrapNode returns the wrapper for node i behind the router: query
// sub-requests get a span under the reader's in-flight request, and the
// bodies of sampled requests are captured for the replay.
func (t *tracer) wrapNode(i int) func(http.Handler) http.Handler {
	if t == nil {
		return func(h http.Handler) http.Handler { return h }
	}
	name := "node" + strconv.Itoa(i)
	return func(h http.Handler) http.Handler {
		return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			req := t.cur.Load()
			if req == 0 || r.URL.Path != "/query/batch" || !t.on.Load() {
				h.ServeHTTP(w, r)
				return
			}
			var body *bytes.Buffer
			if t.sampled(req) {
				body = new(bytes.Buffer)
				r.Body = struct {
					io.Reader
					io.Closer
				}{io.TeeReader(r.Body, body), r.Body}
			}
			start := time.Now()
			h.ServeHTTP(w, r)
			end := time.Now()
			t.mu.Lock()
			t.spans = append(t.spans, span{Name: name, Req: req, Start: t.since(start), End: t.since(end), Parent: -1})
			if body != nil {
				t.caps = append(t.caps, nodeCapture{req: req, node: i, body: body.Bytes()})
			}
			t.mu.Unlock()
		})
	}
}

// wrapServe is wrapFront for a node that is itself the front door.
func (t *tracer) wrapServe(h http.Handler) http.Handler { return t.wrapFront("serve", h) }
