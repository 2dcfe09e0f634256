package cluster

import (
	"encoding/json"
	"strings"
	"testing"
)

func mustParse(t *testing.T, js string) *Topology {
	t.Helper()
	topo, err := Parse([]byte(js))
	if err != nil {
		t.Fatal(err)
	}
	return topo
}

func TestTopologyParseAndNormalize(t *testing.T) {
	topo := mustParse(t, `{
		"domain": 100,
		"nodes": [
			{"id": "b", "addr": "localhost:9002/", "window": [40, 99]},
			{"id": "a", "addr": "http://localhost:9001", "window": [0, 39],
			 "replicas": ["localhost:9003"]}
		]
	}`)
	// Nodes are sorted by window, addrs normalized to scheme + no slash.
	if topo.Nodes[0].ID != "a" || topo.Nodes[1].ID != "b" {
		t.Fatalf("nodes not sorted by window: %v, %v", topo.Nodes[0].ID, topo.Nodes[1].ID)
	}
	if got := topo.Nodes[1].Addr; got != "http://localhost:9002" {
		t.Fatalf("addr not normalized: %q", got)
	}
	if got := topo.Nodes[0].Replicas[0]; got != "http://localhost:9003" {
		t.Fatalf("replica addr not normalized: %q", got)
	}
	if eps := topo.Nodes[0].Endpoints(); len(eps) != 2 || eps[0] != topo.Nodes[0].Addr {
		t.Fatalf("endpoints must lead with the primary: %v", eps)
	}
}

func TestTopologyValidation(t *testing.T) {
	cases := []struct {
		name, js, wantErr string
	}{
		{"gap", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[0,3]},{"id":"b","addr":"x:2","window":[5,9]}]}`, "owned by no node"},
		{"overlap", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[0,5]},{"id":"b","addr":"x:2","window":[5,9]}]}`, "overlap"},
		{"short", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[0,8]}]}`, "owned by no node"},
		{"dup id", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[0,4]},{"id":"a","addr":"x:2","window":[5,9]}]}`, "duplicate node id"},
		{"no nodes", `{"domain":10,"nodes":[]}`, "no nodes"},
		{"bad domain", `{"domain":0,"nodes":[{"id":"a","addr":"x:1","window":[0,0]}]}`, "must be positive"},
		{"window outside", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[0,10]}]}`, "invalid for domain"},
		{"inverted window", `{"domain":10,"nodes":[{"id":"a","addr":"x:1","window":[4,2]},{"id":"b","addr":"x:2","window":[5,9]}]}`, "invalid for domain"},
		{"no addr", `{"domain":10,"nodes":[{"id":"a","window":[0,9]}]}`, "no addr"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse([]byte(tc.js))
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("want error containing %q, got %v", tc.wantErr, err)
			}
		})
	}
}

func TestSplitAndClamp(t *testing.T) {
	topo := mustParse(t, `{"domain":100,"nodes":[
		{"id":"a","addr":"x:1","window":[0,29]},
		{"id":"b","addr":"x:2","window":[30,69]},
		{"id":"c","addr":"x:3","window":[70,99]}]}`)

	parts := topo.Split(nil, 10, 80)
	if len(parts) != 3 {
		t.Fatalf("want 3 parts, got %d: %v", len(parts), parts)
	}
	want := []Window{{10, 29}, {30, 69}, {70, 80}}
	total := 0
	for i, p := range parts {
		if p.Window != want[i] {
			t.Fatalf("part %d: window %v, want %v", i, p.Window, want[i])
		}
		if p.Node != i {
			t.Fatalf("part %d owned by node %d", i, p.Node)
		}
		total += p.Window.Width()
	}
	if total != 71 {
		t.Fatalf("parts cover %d values, want 71", total)
	}

	// A range inside one window yields exactly one part.
	if parts := topo.Split(nil, 35, 35); len(parts) != 1 || parts[0].Node != 1 {
		t.Fatalf("single-window split: %v", parts)
	}

	// Clamp clips to the domain and reports empty intersections.
	if a, b, ok := topo.Clamp(-5, 200); !ok || a != 0 || b != 99 {
		t.Fatalf("clamp(-5,200) = %d,%d,%v", a, b, ok)
	}
	if _, _, ok := topo.Clamp(120, 140); ok {
		t.Fatal("clamp outside the domain must report empty")
	}
}

func TestWindowJSONRoundTrip(t *testing.T) {
	data, err := json.Marshal(Window{Lo: 3, Hi: 17})
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != "[3,17]" {
		t.Fatalf("window marshals as %s, want [3,17]", data)
	}
	var w Window
	if err := json.Unmarshal(data, &w); err != nil {
		t.Fatal(err)
	}
	if w != (Window{Lo: 3, Hi: 17}) {
		t.Fatalf("round-trip gave %+v", w)
	}
}
