package cluster

import (
	"fmt"
	"net/http"

	"rangeagg/internal/serve"
)

// NewHandler exposes a Router over HTTP/JSON with the same query
// surface and frame as a single node (serve.Mux), so clients (synquery
// among them) can point at a router instead of a node without changing
// shape. Request bodies are the node's (serve's wire types); the router
// adds only its routed answers:
//
//	GET  /healthz       RouterHealth: readiness (every window reachable)
//	                    plus the latest observation per node endpoint
//	GET  /topology      the validated Topology
//	GET  /query         serve.QueryParams → RoutedAnswer
//	POST /query/batch   serve.BatchRequest → BatchResult
//	POST /ingest        serve.IngestRequest → Forwarded: mutations
//	                    forwarded to each value's owner
//	POST /load          serve.LoadRequest → Forwarded: a full-domain load
//	                    split into per-owner slices
//	GET  /metrics       serve.MetricsReport with the endpoint stats only
//	GET  /metrics.prom  the same plus the process-wide obs series
//
// Routed answers add the partial-answer contract to the node response:
// "partial" plus a "windows" list reporting, for every owned window the
// range touched, whether it was served exactly, approximately, or not
// at all.
func NewHandler(r *Router, m *serve.Metrics) http.Handler {
	x := serve.NewMux(m)

	x.Handle("/healthz", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		body := RouterHealth{Ready: r.Ready(), Role: "router", Status: "ok"}
		body.Nodes = r.NodeHealths()
		status := http.StatusOK
		if !body.Ready {
			status, body.Status = http.StatusServiceUnavailable, "degraded"
		}
		serve.WriteJSON(w, status, body)
		return 0, nil
	})

	x.Handle("/topology", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		return serve.Reply(w, r.Topology())
	})

	x.Handle("/query", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		q, err := serve.ParseQueryParams(req.URL.Query())
		if err != nil {
			return http.StatusBadRequest, err
		}
		res, err := r.Route(req.Context(), q)
		if err != nil {
			return http.StatusBadGateway, err
		}
		bound, rigorous := serve.WireBound(res.Answer.Bound, res.Answer.Rigorous)
		return serve.Reply(w, RoutedAnswer{Err: bound, Partial: res.Partial, Path: res.Answer.Path.String(),
			Rigorous: rigorous, Source: res.Answer.Source, Value: res.Answer.Value,
			Versions: res.Versions, Windows: res.Windows})
	})

	x.Handle("/query/batch", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		var body serve.BatchRequest
		if status, err := serve.ReadRequest(w, req, serve.MaxBatchBody, "batch", &body); err != nil {
			return status, err
		}
		if err := serve.CheckMaxErr(body.MaxErr); err != nil {
			return http.StatusBadRequest, err
		}
		res, err := r.RouteBatch(req.Context(), body.Synopsis, body.Metric, body.Ranges, body.MaxErr)
		if err != nil {
			return http.StatusBadGateway, err
		}
		return serve.Reply(w, res)
	})

	x.Handle("/ingest", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		var body serve.IngestRequest
		if status, err := serve.ReadRequest(w, req, serve.MaxBatchBody, "ingest", &body); err != nil {
			return status, err
		}
		applied, err := r.forwardIngest(req, body)
		if err != nil {
			return http.StatusBadGateway, err
		}
		return serve.Reply(w, Forwarded{Nodes: applied, OK: true})
	})

	x.Handle("/load", http.MethodPost, func(w http.ResponseWriter, req *http.Request) (int, error) {
		var body serve.LoadRequest
		if status, err := serve.ReadRequest(w, req, serve.MaxLoadBody(r.topo.Domain), "load", &body); err != nil {
			return status, err
		}
		if len(body.Counts) != r.topo.Domain {
			return http.StatusBadRequest, fmt.Errorf("load carries %d counts, topology domain is %d",
				len(body.Counts), r.topo.Domain)
		}
		applied, err := r.forwardLoad(req, body.Counts)
		if err != nil {
			return http.StatusBadGateway, err
		}
		return serve.Reply(w, Forwarded{Nodes: applied, OK: true})
	})

	x.Handle("/metrics", http.MethodGet, func(w http.ResponseWriter, req *http.Request) (int, error) {
		return serve.Reply(w, serve.MetricsReport{Endpoints: m.Snapshot()})
	})

	return x
}

// RoutedAnswer is the router's GET /query body: the merged answer in the
// node's shape (serve.QueryAnswer, less the node's version) plus the
// partial-answer contract and the served versions per node.
type RoutedAnswer struct {
	Err      *float64         `json:"err,omitempty"`
	Partial  bool             `json:"partial"`
	Path     string           `json:"path"`
	Rigorous *bool            `json:"rigorous,omitempty"`
	Source   string           `json:"source"`
	Value    float64          `json:"value"`
	Versions map[string]int64 `json:"versions"`
	Windows  []WindowReport   `json:"windows"`
}

// Forwarded is the router's POST /ingest and /load body: the nodes whose
// primaries applied a share of the mutation.
type Forwarded struct {
	Nodes []string `json:"nodes"`
	OK    bool     `json:"ok"`
}

// RouterHealth is the router's GET /healthz body.
type RouterHealth struct {
	Nodes  []NodeHealth `json:"nodes"`
	Ready  bool         `json:"ready"`
	Role   string       `json:"role"`
	Status string       `json:"status"`
}

// forwardIngest splits the mutations by owning node and forwards each
// node's share to its primary (writes do not fail over: the primary is
// the write authority, replicas converge through replication).
func (r *Router) forwardIngest(req *http.Request, body serve.IngestRequest) ([]string, error) {
	shares := make([]serve.IngestRequest, len(r.topo.Nodes))
	owner := func(value int) (*serve.IngestRequest, error) {
		if value < 0 || value >= r.topo.Domain {
			return nil, fmt.Errorf("value %d is outside the domain [0,%d)", value, r.topo.Domain)
		}
		return &shares[r.topo.owner(value)], nil
	}
	for _, mu := range body.Inserts {
		share, err := owner(mu.Value)
		if err != nil {
			return nil, err
		}
		share.Inserts = append(share.Inserts, mu)
	}
	for _, mu := range body.Deletes {
		share, err := owner(mu.Value)
		if err != nil {
			return nil, err
		}
		share.Deletes = append(share.Deletes, mu)
	}
	return r.forwardToPrimaries(req, "/ingest", func(i int) (any, bool) {
		return shares[i], len(shares[i].Inserts)+len(shares[i].Deletes) > 0
	})
}

// forwardLoad splits a full-domain load into one full-domain slice per
// node, zero outside its window (each node's engine spans the whole
// domain; only its owned window carries data).
func (r *Router) forwardLoad(req *http.Request, counts []int64) ([]string, error) {
	return r.forwardToPrimaries(req, "/load", func(i int) (any, bool) {
		w := r.topo.Nodes[i].Window
		slice := make([]int64, len(counts))
		copy(slice[w.Lo:w.Hi+1], counts[w.Lo:w.Hi+1])
		return serve.LoadRequest{Counts: slice}, true
	})
}

// forwardToPrimaries POSTs each node's body to its primary, all at
// once (fanOut); any failure fails the whole request (writes have no
// partial-answer mode — the caller retries).
func (r *Router) forwardToPrimaries(req *http.Request, path string, body func(i int) (any, bool)) ([]string, error) {
	errs := make([]error, len(r.topo.Nodes))
	sent := make([]bool, len(r.topo.Nodes))
	var tasks []func()
	for i := range r.topo.Nodes {
		b, ok := body(i)
		if !ok {
			continue
		}
		i, b := i, b
		sent[i] = true
		tasks = append(tasks, func() { errs[i] = r.call(req.Context(), r.topo.Nodes[i].Addr, path, b, nil) })
	}
	fanOut(tasks...)
	var applied []string
	for i, n := range r.topo.Nodes {
		if !sent[i] {
			continue
		}
		if errs[i] != nil {
			return nil, fmt.Errorf("forwarding to %s: %w", n.ID, errs[i])
		}
		applied = append(applied, n.ID)
	}
	return applied, nil
}
