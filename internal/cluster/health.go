package cluster

import (
	"encoding/json"
	"fmt"
	"net/http"
	"sync"
	"time"

	"rangeagg/internal/obs"
	"rangeagg/internal/parallel"
	"rangeagg/internal/serve"
)

// replicaLagGauge exports each replica's lag behind its primary in
// records (primary WAL applied index minus the replica's installed
// checkpoint index), refreshed on every health sweep.
func replicaLagGauge(node, replica string) *obs.Gauge {
	return obs.Default.Gauge("rangeagg_router_replica_lag_records",
		obs.L("node", node, "replica", replica)...)
}

// NodeHealth is the router's last observation of one endpoint.
type NodeHealth struct {
	Endpoint string `json:"endpoint"`
	// Live: the endpoint answered /healthz at all (any status).
	Live bool `json:"live"`
	// Ready: it answered 200 (snapshot fresh, replication synced).
	Ready bool `json:"ready"`
	// Version is the endpoint's served snapshot data version.
	Version int64 `json:"version"`
	// Applied is the endpoint's WAL applied index (primaries) or its
	// installed checkpoint index (replicas); 0 when neither applies.
	Applied   uint64    `json:"applied"`
	Err       string    `json:"err,omitempty"`
	CheckedAt time.Time `json:"checked_at"`
}

// healthTracker polls every endpoint's /healthz on an interval and
// keeps the latest observation per endpoint. The router consults it to
// order failover candidates (ready endpoints before live ones before
// dead ones) — observations are advisory: a query still attempts a
// "dead" endpoint last rather than giving up on a window whose state
// may be seconds stale.
type healthTracker struct {
	topo   *Topology
	client *http.Client

	mu    sync.RWMutex
	state map[string]NodeHealth
}

func newHealthTracker(topo *Topology, client *http.Client) *healthTracker {
	return &healthTracker{topo: topo, client: client, state: make(map[string]NodeHealth)}
}

// checkAll sweeps every endpoint concurrently on the bounded pool and
// refreshes the replica-lag gauges.
func (h *healthTracker) checkAll() {
	type target struct{ node, endpoint string }
	var targets []target
	for i := range h.topo.Nodes {
		n := &h.topo.Nodes[i]
		for _, ep := range n.Endpoints() {
			targets = append(targets, target{node: n.ID, endpoint: ep})
		}
	}
	results := make([]NodeHealth, len(targets))
	tasks := make([]func(), len(targets))
	for i := range targets {
		i := i
		tasks[i] = func() { results[i] = h.probe(targets[i].endpoint) }
	}
	parallel.Do(tasks...)

	h.mu.Lock()
	for _, r := range results {
		h.state[r.Endpoint] = r
	}
	h.mu.Unlock()

	// Replica lag: primary applied minus replica applied, clamped at 0
	// (a replica can observe a fresher checkpoint than our last primary
	// probe).
	for i := range h.topo.Nodes {
		n := &h.topo.Nodes[i]
		if len(n.Replicas) == 0 {
			continue
		}
		primary, ok := h.get(n.Addr)
		if !ok || !primary.Live {
			continue
		}
		for _, rep := range n.Replicas {
			if r, ok := h.get(rep); ok && r.Live {
				lag := int64(primary.Applied) - int64(r.Applied)
				if lag < 0 {
					lag = 0
				}
				replicaLagGauge(n.ID, rep).Set(lag)
			}
		}
	}
}

// probe fetches one endpoint's /healthz.
func (h *healthTracker) probe(endpoint string) NodeHealth {
	nh := NodeHealth{Endpoint: endpoint, CheckedAt: time.Now()}
	resp, err := h.client.Get(endpoint + "/healthz")
	if err != nil {
		nh.Err = err.Error()
		return nh
	}
	defer resp.Body.Close()
	var body serve.HealthStatus
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		nh.Err = fmt.Sprintf("decoding healthz: %v", err)
		return nh
	}
	nh.Live = true
	nh.Ready = resp.StatusCode == http.StatusOK && body.Ready
	nh.Version = body.Version
	nh.Applied = body.Applied
	if body.Follow != nil {
		nh.Applied = body.Follow.Applied
	}
	return nh
}

// get returns the last observation of an endpoint.
func (h *healthTracker) get(endpoint string) (NodeHealth, bool) {
	h.mu.RLock()
	defer h.mu.RUnlock()
	nh, ok := h.state[endpoint]
	return nh, ok
}

// order sorts endpoints for attempt order without reordering peers:
// ready first, then live-but-degraded, then unknown, then known-dead.
// Within a class the topology's preference order (primary before
// replicas) is preserved.
func (h *healthTracker) order(endpoints []string) []string {
	class := func(ep string) int {
		nh, ok := h.get(ep)
		switch {
		case ok && nh.Live && nh.Ready:
			return 0
		case ok && nh.Live:
			return 1
		case !ok:
			return 2
		default:
			return 3
		}
	}
	out := append([]string(nil), endpoints...)
	// Insertion sort keeps the stable preference order and the lists are
	// tiny (primary + a couple of replicas).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && class(out[j]) < class(out[j-1]); j-- {
			out[j], out[j-1] = out[j-1], out[j]
		}
	}
	return out
}

// snapshot exports the tracker state for the router's /healthz.
func (h *healthTracker) snapshot() []NodeHealth {
	h.mu.RLock()
	defer h.mu.RUnlock()
	out := make([]NodeHealth, 0, len(h.state))
	for i := range h.topo.Nodes {
		for _, ep := range h.topo.Nodes[i].Endpoints() {
			if nh, ok := h.state[ep]; ok {
				out = append(out, nh)
			}
		}
	}
	return out
}
