package cluster

import (
	"encoding/json"
	"fmt"
	"io"
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
// stands in for the node, and returns the router's HTTP surface and the
// count of TCP connections the router opened to the node.
func fakeNode(t *testing.T, node http.HandlerFunc) (*httptest.Server, *atomic.Int64) {
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
