// Package cluster turns the single-process server into a horizontally
// scalable system: a static topology assigns each synserve node an
// owned window of the attribute domain (plus optional replicas fed by
// checkpoint replication), and a stateless router splits every range
// query across the owning nodes, sends the sub-queries to all of them
// at once, and merges the answers exactly.
//
// The composition is the same cum-diff argument the SEGMENTED family
// rests on: COUNT and SUM over [a,b] are differences of cumulative
// sums, so a range split across disjoint windows is answered exactly by
// the sum of the per-window answers, and per-window error bounds add
// (plan.MergeAnswers). Error budgets split proportionally to window
// weight (plan.SplitBudget), so a routed budgeted answer meets the
// whole budget whenever every node meets its share — which it always
// does when live, because every node holds exact tables to escalate to.
package cluster

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// Window is one inclusive range [Lo,Hi] of the attribute domain; it
// marshals as the two-element array [lo,hi] in topology JSON.
type Window struct {
	Lo, Hi int
}

// MarshalJSON encodes the window as [lo,hi].
func (w Window) MarshalJSON() ([]byte, error) { return json.Marshal([2]int{w.Lo, w.Hi}) }

// UnmarshalJSON decodes a [lo,hi] array.
func (w *Window) UnmarshalJSON(b []byte) error {
	var a [2]int
	if err := json.Unmarshal(b, &a); err != nil {
		return err
	}
	w.Lo, w.Hi = a[0], a[1]
	return nil
}

// Width is the number of domain values the window covers.
func (w Window) Width() int { return w.Hi - w.Lo + 1 }

// Intersect clips [a,b] to the window; ok is false when they are
// disjoint.
func (w Window) Intersect(a, b int) (Window, bool) {
	if a < w.Lo {
		a = w.Lo
	}
	if b > w.Hi {
		b = w.Hi
	}
	return Window{Lo: a, Hi: b}, a <= b
}

// Node is one segment owner: the synserve instance at Addr serves the
// window's data (its engine spans the full domain with counts outside
// the window zero, so sub-queries use global coordinates unchanged).
// Replicas list synserve instances that replicate this node's state by
// pulling its checkpoints; the router fails over to them in order.
type Node struct {
	ID       string   `json:"id"`
	Addr     string   `json:"addr"`
	Window   Window   `json:"window"`
	Replicas []string `json:"replicas,omitempty"`
}

// Endpoints returns the node's query targets in preference order:
// primary first, then replicas.
func (n *Node) Endpoints() []string {
	out := make([]string, 0, 1+len(n.Replicas))
	out = append(out, n.Addr)
	out = append(out, n.Replicas...)
	return out
}

// Topology is the static cluster descriptor: the domain size and the
// nodes whose windows tile it. It is validated once at load; the router
// treats it as immutable.
type Topology struct {
	Domain int    `json:"domain"`
	Nodes  []Node `json:"nodes"`
}

// Part is one piece of a split range: the sub-window and the index of
// the node owning it.
type Part struct {
	Node   int
	Window Window
}

// Split appends the parts of [a,b] to parts, in window order. The
// windows tile the domain in order, so the parts are the run of windows
// from the one holding a to the one holding b; a clamped non-empty
// range always has at least one.
func (t *Topology) Split(parts []Part, a, b int) []Part {
	for i := t.owner(a); i < len(t.Nodes) && t.Nodes[i].Window.Lo <= b; i++ {
		if w, ok := t.Nodes[i].Window.Intersect(a, b); ok {
			parts = append(parts, Part{Node: i, Window: w})
		}
	}
	return parts
}

// owner returns the index of the first window that ends at or after v:
// the one holding v when v is in the domain.
func (t *Topology) owner(v int) int {
	return sort.Search(len(t.Nodes), func(i int) bool { return t.Nodes[i].Window.Hi >= v })
}

// Clamp intersects [a,b] with the domain; ok is false when empty.
func (t *Topology) Clamp(a, b int) (int, int, bool) {
	if a < 0 {
		a = 0
	}
	if b >= t.Domain {
		b = t.Domain - 1
	}
	return a, b, a <= b
}

// Parse decodes and validates a topology descriptor.
func Parse(data []byte) (*Topology, error) {
	var t Topology
	if err := json.Unmarshal(data, &t); err != nil {
		return nil, fmt.Errorf("cluster: parsing topology: %w", err)
	}
	if err := t.validate(); err != nil {
		return nil, err
	}
	return &t, nil
}

// LoadTopology reads and validates a topology file.
func LoadTopology(path string) (*Topology, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("cluster: reading topology: %w", err)
	}
	return Parse(data)
}

// validate enforces the invariants the router's exactness argument
// needs: unique node IDs, usable endpoints, and windows that tile the
// domain — disjoint and complete, so every range splits into exactly
// one sub-range per owning node and the cum-diff composition is exact.
func (t *Topology) validate() error {
	if t.Domain <= 0 {
		return fmt.Errorf("cluster: topology domain must be positive, got %d", t.Domain)
	}
	if len(t.Nodes) == 0 {
		return fmt.Errorf("cluster: topology has no nodes")
	}
	seen := make(map[string]bool, len(t.Nodes))
	for i := range t.Nodes {
		n := &t.Nodes[i]
		if n.ID == "" {
			return fmt.Errorf("cluster: node %d has no id", i)
		}
		if seen[n.ID] {
			return fmt.Errorf("cluster: duplicate node id %q", n.ID)
		}
		seen[n.ID] = true
		if n.Addr == "" {
			return fmt.Errorf("cluster: node %q has no addr", n.ID)
		}
		n.Addr = normalizeAddr(n.Addr)
		for j, r := range n.Replicas {
			if r == "" {
				return fmt.Errorf("cluster: node %q replica %d has no addr", n.ID, j)
			}
			n.Replicas[j] = normalizeAddr(r)
		}
		if n.Window.Lo > n.Window.Hi || n.Window.Lo < 0 || n.Window.Hi >= t.Domain {
			return fmt.Errorf("cluster: node %q window [%d,%d] invalid for domain %d",
				n.ID, n.Window.Lo, n.Window.Hi, t.Domain)
		}
	}
	// Sort nodes by window so Split returns parts in domain order and
	// the tiling check is a linear walk.
	sort.SliceStable(t.Nodes, func(i, j int) bool { return t.Nodes[i].Window.Lo < t.Nodes[j].Window.Lo })
	next := 0
	for i := range t.Nodes {
		w := t.Nodes[i].Window
		if w.Lo != next {
			if w.Lo < next {
				return fmt.Errorf("cluster: windows of %q and %q overlap at %d",
					t.Nodes[i-1].ID, t.Nodes[i].ID, w.Lo)
			}
			return fmt.Errorf("cluster: domain values [%d,%d] are owned by no node", next, w.Lo-1)
		}
		next = w.Hi + 1
	}
	if next != t.Domain {
		return fmt.Errorf("cluster: domain values [%d,%d] are owned by no node", next, t.Domain-1)
	}
	return nil
}

// normalizeAddr gives bare host:port addresses an http scheme and
// strips trailing slashes, so endpoints join cleanly with paths.
func normalizeAddr(addr string) string {
	if !strings.Contains(addr, "://") {
		addr = "http://" + addr
	}
	return strings.TrimRight(addr, "/")
}
