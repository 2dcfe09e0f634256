package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/cluster"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// specs are the two COUNT synopses every node serves: a cheap coarse one
// the planner probes first and a finer segmented one it escalates to.
func specs() []engine.SynopsisSpec {
	return []engine.SynopsisSpec{
		{Name: "coarse", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 64}},
		{Name: "fine", Metric: engine.Count, Options: build.Options{Method: build.Segmented, BudgetWords: 512, Segments: 8}},
	}
}

// nodeConfig mirrors cmd/synserve's flag defaults (-debounce 50ms
// -maxlag 1s), with -ingest-mode incremental when asked.
func nodeConfig(incremental bool) serve.Config {
	mode := ingest.ModeRebuild
	if incremental {
		mode = ingest.ModeIncremental
	}
	return serve.Config{Debounce: 50 * time.Millisecond, MaxLag: time.Second, Ingest: ingest.Config{Mode: mode}}
}

// httpFront is one loopback listener serving a handler the way the
// commands do (cmd/synserve and cmd/synrouter read/write timeouts).
type httpFront struct {
	srv  *http.Server
	url  string
	done chan struct{}
}

func listen(h http.Handler) (*httpFront, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening: %w", err)
	}
	f := &httpFront{
		srv:  &http.Server{Handler: h, ReadTimeout: 10 * time.Second, WriteTimeout: 30 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(f.done)
		// Serve returns ErrServerClosed on close; any other error shows
		// up as failed requests.
		_ = f.srv.Serve(ln)
	}()
	return f, nil
}

func (f *httpFront) close() {
	_ = f.srv.Close() // closes the listener and every connection
	<-f.done
}

// node is one synserve-shaped node: an engine (WAL-backed when durable),
// its serve.Server, and the serve.NewHandler front door.
type node struct {
	owned []int64 // the counts the node was loaded with
	db    *wal.DB
	dir   string
	srv   *serve.Server
	front *httpFront
}

// startNode loads counts into a fresh engine, builds the initial
// snapshot and starts serving. A non-empty dir makes the node durable
// the way synserve -data-dir does: fsync always, checkpoint every 1024
// records.
func startNode(counts []int64, dir string, incremental bool, wrap func(http.Handler) http.Handler) (*node, error) {
	n := &node{owned: counts, dir: dir}
	cfg := nodeConfig(incremental)
	var eng *engine.Engine
	if dir != "" {
		db, rec, err := wal.Open(dir, wal.Options{Name: "synserve", Domain: len(counts), Fsync: wal.FsyncAlways, CheckpointEvery: 1024})
		if err != nil {
			return nil, err
		}
		n.db = db
		if rec.Fresh {
			if err := db.Load(counts); err != nil {
				n.close()
				return nil, err
			}
		}
		eng = db.Engine()
		cfg.WAL = db
		cfg.RecoveredShards = rec.Shards
	} else {
		var err error
		if eng, err = engine.New("synserve", len(counts)); err != nil {
			return nil, err
		}
		if err := eng.Load(counts); err != nil {
			return nil, err
		}
	}
	srv, err := serve.New(eng, specs(), cfg)
	if err != nil {
		n.close()
		return nil, err
	}
	n.srv = srv
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(srv, serve.NewMetrics()))
	if n.front, err = listen(wrap(mux)); err != nil {
		n.close()
		return nil, err
	}
	return n, nil
}

func (n *node) close() {
	if n.front != nil {
		n.front.close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	if n.db != nil {
		_ = n.db.Close() // the directory is removed next
	}
	if n.dir != "" {
		_ = os.RemoveAll(n.dir)
	}
}

// stack is one workload's serving topology: its nodes and, for the
// routed workload, the router in front of them.
type stack struct {
	nodes  []*node
	topo   *cluster.Topology
	router *cluster.Router
	rfront *httpFront
	front  string // the URL clients talk to
}

func (s *stack) close() {
	if s.rfront != nil {
		s.rfront.close()
	}
	if s.router != nil {
		s.router.Close()
	}
	for _, n := range s.nodes {
		n.close()
	}
}

// nodeWindows splits the domain into k equal owned windows.
func nodeWindows(k int) []cluster.Window {
	ws := make([]cluster.Window, k)
	for i := range ws {
		ws[i] = cluster.Window{Lo: i * domain / k, Hi: (i+1)*domain/k - 1}
	}
	return ws
}

// ownedCounts zeroes counts outside w: each node runs a full-domain
// engine holding only its window, as the cluster layer requires.
func ownedCounts(counts []int64, w cluster.Window) []int64 {
	out := make([]int64, len(counts))
	copy(out[w.Lo:w.Hi+1], counts[w.Lo:w.Hi+1])
	return out
}

// startRouted starts one node per owned slice, then a router configured
// with cmd/synrouter's defaults in front of them.
func startRouted(owned [][]int64, windows []cluster.Window, tr *tracer) (*stack, error) {
	st := &stack{}
	type nodeJSON struct {
		ID     string         `json:"id"`
		Addr   string         `json:"addr"`
		Window cluster.Window `json:"window"`
	}
	var nodes []nodeJSON
	for i := range owned {
		n, err := startNode(owned[i], "", false, tr.wrapNode(i))
		if err != nil {
			st.close()
			return nil, err
		}
		st.nodes = append(st.nodes, n)
		nodes = append(nodes, nodeJSON{ID: fmt.Sprintf("n%d", i), Addr: n.front.url, Window: windows[i]})
	}
	raw, err := json.Marshal(map[string]any{"domain": domain, "nodes": nodes})
	if err != nil {
		st.close()
		return nil, err
	}
	if st.topo, err = cluster.Parse(raw); err != nil {
		st.close()
		return nil, err
	}
	st.router = cluster.NewRouter(st.topo, cluster.RouterConfig{
		Timeout: 2 * time.Second, Backoff: 25 * time.Millisecond, HealthEvery: time.Second,
	})
	if st.rfront, err = listen(tr.wrapFront("router", cluster.NewHandler(st.router, serve.NewMetrics()))); err != nil {
		st.close()
		return nil, err
	}
	st.front = st.rfront.url
	return st, nil
}

// firstAnswer asks the front door for one whole-domain count: the end of
// a cold start.
func firstAnswer(client *http.Client, front string) error {
	resp, err := client.Get(fmt.Sprintf("%s/query?a=0&b=%d", front, domain-1))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if _, err := io.Copy(io.Discard, resp.Body); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK {
		return errors.New("first answer: " + resp.Status)
	}
	return nil
}
