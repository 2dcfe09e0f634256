package main

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestInputsDeterministic(t *testing.T) {
	a := inputDigest(1, 4096)
	if b := inputDigest(1, 4096); a != b {
		t.Fatal("seed 1 generated different inputs on two calls")
	}
	if c := inputDigest(2, 4096); c == a {
		t.Fatal("seeds 1 and 2 generated identical inputs")
	}
}

func TestVerdict(t *testing.T) {
	bounded := func(v float64) optFloat { return optFloat{v: v, ok: true} }
	for _, tc := range []struct {
		name   string
		value  float64
		bound  optFloat
		exact  int64
		maxErr float64
		ok     bool
	}{
		{"within bound", 105, bounded(10), 100, 20, true},
		{"exact path", 100, bounded(0), 100, 20, true},
		{"unbounded", 100, optFloat{}, 100, 20, false},
		{"bound over budget", 100, bounded(30), 100, 20, false},
		{"exact path off by one", 101, bounded(0), 100, 20, false},
		{"outside bound", 115, bounded(10), 100, 20, false},
	} {
		if got := verdict(tc.value, tc.bound, tc.exact, tc.maxErr); (got == "") != tc.ok {
			t.Errorf("%s: verdict %q, want ok=%v", tc.name, got, tc.ok)
		}
	}
}

// TestSmoke runs every workload briefly at a fixed seed, untraced and
// traced; any failed operation fails the test.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds full-size synopses for every workload")
	}
	for _, w := range []string{pointHot, routedScan, ingestMixed} {
		for _, traced := range []bool{false, true} {
			name := w
			if traced {
				name += "/traced"
			}
			t.Run(name, func(t *testing.T) {
				dir := t.TempDir()
				res, err := run(options{
					workload: w, seed: 7, seconds: 1, trace: traced, reps: 1, warmup: 200 * time.Millisecond,
					outDir: dir, tmpDir: dir,
				})
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
					t.Fatalf("attempted %d, failed %d", res.Attempted, res.Failed)
				}
				want := []string{"setup_s", "query_p50_ms", "query_p99_ms", "answers_per_s", "relerr_p50", "heap_mb"}
				if traced {
					want = nil
					for _, d := range layerDefs {
						want = append(want, d.name)
					}
					for _, ext := range []string{".spans.json", ".report.md"} {
						if _, err := os.Stat(filepath.Join(dir, w+"-seed7"+ext)); err != nil {
							t.Error(err)
						}
					}
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics, want %d", len(res.Metrics), len(want))
				}
				for _, name := range want {
					if _, ok := res.Metrics[name]; !ok {
						t.Errorf("metric %s missing", name)
					}
				}
			})
		}
	}
}
