package cluster

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"rangeagg/internal/serve"
)

// fakeNode fronts a one-node topology over [0,63] with a handler that
// stands in for the node, and one for each of its replicas, and returns
// the router's HTTP surface and the count of TCP connections the router
// opened to the node.
func fakeNode(t *testing.T, node http.HandlerFunc, replicas ...http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
	t.Helper()
	var conns atomic.Int64
	ns := httptest.NewUnstartedServer(node)
	ns.Config.ConnState = func(_ net.Conn, st http.ConnState) {
		if st == http.StateNew {
			conns.Add(1)
		}
	}
	ns.Start()
	t.Cleanup(ns.Close)
	topo := &Topology{Domain: 64, Nodes: []Node{{ID: "n0", Addr: ns.URL, Window: Window{Lo: 0, Hi: 63}}}}
	for _, h := range replicas {
		rs := httptest.NewServer(h)
		t.Cleanup(rs.Close)
		topo.Nodes[0].Replicas = append(topo.Nodes[0].Replicas, rs.URL)
	}
	if err := topo.validate(); err != nil {
		t.Fatal(err)
	}
	r := NewRouter(topo, RouterConfig{HealthEvery: -1, Backoff: time.Millisecond, Timeout: time.Second})
	t.Cleanup(r.Close)
	front := httptest.NewServer(NewHandler(r, serve.NewMetrics()))
	t.Cleanup(front.Close)
	return front, &conns
}

// A node whose errs list does not match its values is refused like a
// wrong values count: a permanent failure of the window, relayed as a
// 502 ErrorBody, not an index panic that drops the client's connection.
func TestRouterRejectsMismatchedErrs(t *testing.T) {
	var calls atomic.Int64
	front, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		fmt.Fprintln(w, `{"errs":[],"values":[5,6],"version":1}`)
	})
	raw := postRaw(t, front.URL+"/query/batch", `{"ranges":[[0,3],[4,9]]}`, http.StatusBadGateway)
	var e serve.ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "returned 0 errs for 2 ranges") {
		t.Fatalf("502 body %q (%v)", raw, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a permanent refusal was retried: %d attempts", n)
	}
}

// stubAnswer is a node's answer to the two-range batch the tests below
// send: a −0 value with a −0 bound, and a subnormal value unbounded.
func stubAnswer() serve.BatchAnswer {
	negZero := math.Copysign(0, -1)
	return serve.BatchAnswer{Errs: []*float64{&negZero, nil}, Values: []float64{negZero, 5e-324}, Version: 3}
}

// A node built before the binary answer ignores the router's Accept and
// answers JSON, as the stubs above do. The router merges that answer
// bit-identically to the binary one, and a node's −0 reaches the client
// as 0 either way, since the router sums from +0.
func TestRouterMergesJSONAndBinaryAnswersAlike(t *testing.T) {
	var binary atomic.Bool
	front, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		if got := r.Header.Get("Accept"); got != serve.BatchMediaType {
			t.Errorf("batch sub-request Accept %q, want %q", got, serve.BatchMediaType)
		}
		if !binary.Load() {
			serve.WriteJSON(w, http.StatusOK, stubAnswer())
			return
		}
		_, _ = serve.ReplyBatch(w, r, stubAnswer())
		if got := w.Header().Get("Content-Type"); got != serve.BatchMediaType {
			t.Errorf("node answered %q, want the binary answer", got)
		}
	})
	const batch = `{"ranges":[[0,3],[4,9]]}`
	fromJSON := postRaw(t, front.URL+"/query/batch", batch, http.StatusOK)
	binary.Store(true)
	fromBinary := postRaw(t, front.URL+"/query/batch", batch, http.StatusOK)
	if !bytes.Equal(fromJSON, fromBinary) {
		t.Fatalf("merged answers differ:\n JSON   %s\n binary %s", fromJSON, fromBinary)
	}
	if want := `{"errs":[0,null],"partial":false,"served":[true,true],"values":[0,5e-324],"versions":{"n0":3},`; !bytes.HasPrefix(fromBinary, []byte(want)) {
		t.Fatalf("merged answer %s, want it to begin %s", fromBinary, want)
	}
}

// writeBinary answers with body as a binary batch answer.
func writeBinary(w http.ResponseWriter, body []byte) {
	w.Header().Set("Content-Type", serve.BatchMediaType)
	_, _ = w.Write(body)
}

// A binary answer one byte short fails to decode, like a JSON body cut
// short: it is never merged, and the window is retried on the replica.
func TestRouterRetriesShortBinaryAnswer(t *testing.T) {
	bin, _ := stubAnswer().AppendBinary(nil)
	var short atomic.Int64
	front, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		short.Add(1)
		writeBinary(w, bin[:len(bin)-1])
	}, func(w http.ResponseWriter, r *http.Request) {
		writeBinary(w, bin)
	})
	var res BatchResult
	if err := json.Unmarshal(postRaw(t, front.URL+"/query/batch", `{"ranges":[[0,3],[4,9]]}`, http.StatusOK), &res); err != nil {
		t.Fatal(err)
	}
	if w := res.Windows; short.Load() != 1 || len(w) != 1 || !w[0].Replica || w[0].Attempts != 2 || res.Partial {
		t.Fatalf("short answer served %d times, windows %+v, partial %v", short.Load(), w, res.Partial)
	}
	if math.Float64bits(res.Values[0]) != 0 || res.Values[1] != 5e-324 || res.Errs[0] == nil || *res.Errs[0] != 0 || res.Errs[1] != nil {
		t.Fatalf("merged %v, errs %v, want the replica's answer alone", res.Values, res.Errs)
	}
}

// A well-formed binary answer whose count disagrees with the sub-ranges
// is refused like a JSON one: permanently, without a retry.
func TestRouterRejectsMiscountedBinaryAnswer(t *testing.T) {
	bin, _ := serve.BatchAnswer{Errs: []*float64{nil}, Values: []float64{1}}.AppendBinary(nil)
	var calls atomic.Int64
	front, _ := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeBinary(w, bin)
	})
	raw := postRaw(t, front.URL+"/query/batch", `{"ranges":[[0,3],[4,9]]}`, http.StatusBadGateway)
	var e serve.ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "returned 1 values for 2 ranges") {
		t.Fatalf("502 body %q (%v)", raw, err)
	}
	if n := calls.Load(); n != 1 {
		t.Fatalf("a permanent refusal was retried: %d attempts", n)
	}
}

// Forwarded writes read the node's acknowledgement to EOF, so they all
// travel over one keep-alive connection.
func TestRouterForwardsReuseConnection(t *testing.T) {
	front, conns := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.Ack{OK: true})
	})
	const writes = 5
	for i := 0; i < writes; i++ {
		postRaw(t, front.URL+"/ingest", fmt.Sprintf(`{"inserts":[{"value":%d,"count":1}]}`, i), http.StatusOK)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("%d forwarded writes opened %d connections to the node, want 1", writes, n)
	}
}

// The router bounds /query/batch bodies like a node does.
func TestRouterBatchBodyBound(t *testing.T) {
	front, conns := fakeNode(t, func(w http.ResponseWriter, r *http.Request) {
		serve.WriteJSON(w, http.StatusOK, serve.BatchAnswer{Errs: []*float64{nil}, Values: []float64{1}})
	})
	body := `{"ranges":[[1,2]]}`
	pad := strings.Repeat(" ", serve.MaxBatchBody-len(body))
	postRaw(t, front.URL+"/query/batch", body+pad, http.StatusOK)
	raw := postRaw(t, front.URL+"/query/batch", body+pad+" ", http.StatusRequestEntityTooLarge)
	var e serve.ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
	if n := conns.Load(); n != 1 {
		t.Fatalf("the refused body reached the node: %d connections", n)
	}
}

func postRaw(t *testing.T, url, body string, wantStatus int) []byte {
	t.Helper()
	resp, err := http.Post(url, "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != wantStatus {
		t.Fatalf("POST %s: status %d, want %d: %s", url, resp.StatusCode, wantStatus, raw)
	}
	return raw
}

// clusterRecords republishes every node behind the router and returns
// the records their /health bodies report in total.
func clusterRecords(t *testing.T, r *Router) float64 {
	t.Helper()
	var total float64
	for _, n := range r.Topology().Nodes {
		postRaw(t, n.Addr+"/rebuild", "", http.StatusOK)
		total += getJSON(t, n.Addr+"/health", http.StatusOK)["records"].(float64)
	}
	return total
}

// The router bounds /ingest bodies at serve.MaxBatchBody: the largest
// accepted body is forwarded and applied, one byte more is refused with
// 413 before any node sees it.
func TestRouterIngestBodyBound(t *testing.T) {
	router, front := startRouterHandler(t, make([]int64, 64))
	body := `{"inserts":[{"value":5,"count":3},{"value":60,"count":4}]}`
	pad := strings.Repeat(" ", serve.MaxBatchBody-len(body))
	postRaw(t, front.URL+"/ingest", body+pad, http.StatusOK)
	if got := clusterRecords(t, router); got != 7 {
		t.Fatalf("records %g after the largest accepted ingest, want 7", got)
	}
	raw := postRaw(t, front.URL+"/ingest", body+pad+" ", http.StatusRequestEntityTooLarge)
	var e serve.ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
	if got := clusterRecords(t, router); got != 7 {
		t.Fatalf("records %g after a refused ingest, want 7", got)
	}
}

// The router bounds /load bodies by its topology domain
// (serve.MaxLoadBody): the largest accepted body is split and applied,
// one byte more is refused with 413.
func TestRouterLoadBodyBound(t *testing.T) {
	const n = 64
	router, front := startRouterHandler(t, make([]int64, n))
	load := func(count string, size int64) string {
		body := `{"counts":[` + strings.Repeat(count+",", n-1) + count + `]}`
		return body + strings.Repeat(" ", int(size)-len(body))
	}
	limit := serve.MaxLoadBody(n)
	postRaw(t, front.URL+"/load", load("1", limit), http.StatusOK)
	if got := clusterRecords(t, router); got != n {
		t.Fatalf("records %g after the largest accepted load, want %d", got, n)
	}
	raw := postRaw(t, front.URL+"/load", load("2", limit+1), http.StatusRequestEntityTooLarge)
	var e serve.ErrorBody
	if err := json.Unmarshal(raw, &e); err != nil || !strings.Contains(e.Error, "exceeds") {
		t.Fatalf("413 body %q (%v)", raw, err)
	}
	if got := clusterRecords(t, router); got != n {
		t.Fatalf("records %g after a refused load, want %d", got, n)
	}
}
