package main

import (
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: rangeagg
BenchmarkConstructScaling/A0/n=128-8         	    9270	    127486 ns/op	  131455 B/op	     266 allocs/op
BenchmarkConstructScaling/A0/n=128-8         	    9000	    130000 ns/op
BenchmarkConstructScaling/A0/n=128-8         	    9100	    125000 ns/op
BenchmarkServeHTTP/batch-256-8               	     100	   1000000 ns/op
BenchmarkServeHTTP/batch-256-8               	     100	   1200000 ns/op
PASS
ok  	rangeagg	12.3s
`

func TestParseBenchAndMedians(t *testing.T) {
	samples := parseBench(sampleOutput, 8)
	if got := len(samples["ConstructScaling/A0/n=128"]); got != 3 {
		t.Fatalf("A0 samples = %d, want 3", got)
	}
	if got := len(samples["ServeHTTP/batch-256"]); got != 2 {
		t.Fatalf("batch samples = %d, want 2", got)
	}
	stats := reduce(samples)
	if got := stats["ConstructScaling/A0/n=128"]; got.median != 127486 || got.min != 125000 {
		t.Fatalf("odd-count stats = %+v, want median 127486 min 125000", got)
	}
	if got := stats["ServeHTTP/batch-256"]; got.median != 1100000 || got.min != 1000000 {
		t.Fatalf("even-count stats = %+v, want median 1100000 min 1000000", got)
	}
}

func TestNormalizeName(t *testing.T) {
	for _, tc := range []struct {
		in    string
		procs int
		want  string
	}{
		// A 1-core host: go test appends no suffix, so a benchmark's own
		// trailing number must survive.
		{"BenchmarkServeHTTP/single-256", 1, "ServeHTTP/single-256"},
		{"BenchmarkRouterFanout/batch-256", 1, "RouterFanout/batch-256"},
		{"BenchmarkSegmentedRebuild/dirty-1-of-8", 1, "SegmentedRebuild/dirty-1-of-8"},
		{"BenchmarkConstructScaling/SAP0/n=512", 1, "ConstructScaling/SAP0/n=512"},
		{"BenchmarkFoo", 1, "Foo"},
		// A 4-core host: exactly the "-4" suffix goes.
		{"BenchmarkServeHTTP/single-256-4", 4, "ServeHTTP/single-256"},
		{"BenchmarkRouterFanout/batch-256-4", 4, "RouterFanout/batch-256"},
		{"BenchmarkSegmentedRebuild/dirty-1-of-8-4", 4, "SegmentedRebuild/dirty-1-of-8"},
		{"BenchmarkConstructScaling/SAP0/n=512-4", 4, "ConstructScaling/SAP0/n=512"},
		{"BenchmarkFoo-4", 4, "Foo"},
	} {
		if got := normalizeName(tc.in, tc.procs); got != tc.want {
			t.Errorf("normalizeName(%q, %d) = %q, want %q", tc.in, tc.procs, got, tc.want)
		}
	}
}

// steady builds a benchStat whose median and min agree — what a genuine
// code-speed change looks like (every sample shifts together).
func steady(ns float64) benchStat { return benchStat{median: ns, min: ns} }

func TestCompareGate(t *testing.T) {
	baseline := map[string]float64{"a": 1000, "b": 1000, "c": 1000}

	// Within threshold: passes.
	report, failed := compare(baseline,
		map[string]benchStat{"a": steady(1100), "b": steady(950), "c": steady(1000)}, 15, 1)
	if failed {
		t.Fatalf("within-threshold run failed:\n%s", report)
	}

	// A synthetic 2x slowdown on one benchmark fails the gate.
	report, failed = compare(baseline,
		map[string]benchStat{"a": steady(2000), "b": steady(1000), "c": steady(1000)}, 15, 1)
	if !failed || !strings.Contains(report, "REGRESSION") {
		t.Fatalf("2x slowdown not flagged:\n%s", report)
	}

	// Noisy-neighbour contention (median inflated, fastest sample still at
	// baseline speed) is reported but does not fail the gate.
	report, failed = compare(baseline,
		map[string]benchStat{"a": {median: 2000, min: 1010}, "b": steady(1000), "c": steady(1000)}, 15, 1)
	if failed || !strings.Contains(report, "noisy") {
		t.Fatalf("contention noise mishandled:\n%s", report)
	}

	// A benchmark missing from the run fails too.
	report, failed = compare(baseline,
		map[string]benchStat{"a": steady(1000), "b": steady(1000)}, 15, 1)
	if !failed || !strings.Contains(report, "MISSING") {
		t.Fatalf("missing benchmark not flagged:\n%s", report)
	}

	// Large improvements are reported but never fail.
	report, failed = compare(baseline,
		map[string]benchStat{"a": steady(100), "b": steady(1000), "c": steady(1000)}, 15, 1)
	if failed || !strings.Contains(report, "improved") {
		t.Fatalf("improvement mishandled:\n%s", report)
	}

	// New benchmarks absent from the baseline are reported, not gated.
	report, failed = compare(baseline,
		map[string]benchStat{"a": steady(1000), "b": steady(1000), "c": steady(1000), "d": steady(5)}, 15, 1)
	if failed || !strings.Contains(report, "not in baseline") {
		t.Fatalf("new benchmark mishandled:\n%s", report)
	}
}

func TestCompareCalibrationScale(t *testing.T) {
	baseline := map[string]float64{"a": 1000, "b": 1000}

	// A host running everything 2x slower (calibration ratio 2) is not a
	// regression once scaled.
	report, failed := compare(baseline,
		map[string]benchStat{"a": steady(2000), "b": steady(2000)}, 15, 2)
	if failed {
		t.Fatalf("uniform host slowdown flagged despite calibration:\n%s", report)
	}

	// A genuine 2x code slowdown on the same 2x-slower host (4x raw) still
	// fails after scaling.
	report, failed = compare(baseline,
		map[string]benchStat{"a": steady(4000), "b": steady(2000)}, 15, 2)
	if !failed || !strings.Contains(report, "REGRESSION") {
		t.Fatalf("scaled code regression not flagged:\n%s", report)
	}
}
