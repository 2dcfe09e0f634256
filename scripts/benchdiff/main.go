// Command benchdiff is the benchmark-regression gate: it runs the gated
// benchmarks several times, takes the per-benchmark median ns/op, and
// compares it against the committed baseline (BENCH_baseline.json),
// failing when any benchmark regressed by more than the threshold.
//
//	go run ./scripts/benchdiff                 # compare against the baseline
//	go run ./scripts/benchdiff -update         # refresh the baseline (make bench-baseline)
//	go run ./scripts/benchdiff -threshold 10   # tighter gate
//
// Two defenses keep the gate honest on shared hardware. First, a fixed
// calibration loop is timed alongside the benchmarks and stored in the
// baseline; comparisons are scaled by the calibration ratio so a host
// that is uniformly slower (CPU steal, a weaker runner class) does not
// read as a code regression — and a real regression cannot hide in the
// calibration loop, which runs no repository code. Second, the gate
// compares the median-of-N ns/op but only fails when the fastest sample
// regressed past the threshold too: a real slowdown shifts every
// sample, while transient contention inflates some and leaves others
// near baseline. Improvements are reported but never fail the gate;
// refresh the baseline when they should stick.
//
// Exit status: 0 ok, 1 regression (or benchmarks missing from the run),
// 2 operational error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"os/exec"
	"regexp"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"time"
)

// baselineFile is the committed BENCH_baseline.json: the flags the
// medians were collected under, and median ns/op per benchmark (names
// without the Benchmark prefix or the -cpu suffix, so baselines compare
// across machines with different core counts).
type baselineFile struct {
	Bench     string `json:"bench"`
	Benchtime string `json:"benchtime"`
	Count     int    `json:"count"`
	Go        string `json:"go"`
	Note      string `json:"note,omitempty"`
	// CalibrationNs is the reference-loop time measured alongside the
	// baseline run; comparisons are scaled by the ratio of the current
	// machine's calibration to this, so a uniformly slower (or faster)
	// host does not read as a code regression.
	CalibrationNs float64            `json:"calibration_ns"`
	NsPerOp       map[string]float64 `json:"ns_per_op"`
}

func main() {
	var (
		bench     = flag.String("bench", "ConstructScaling|ServeHTTP|PlannerPaths|SegmentedRebuild|RouterFanout|IngestSustained", "benchmark regex to gate")
		pkg       = flag.String("pkg", ".", "package pattern holding the benchmarks")
		count     = flag.Int("count", 6, "benchmark repetitions (median taken per benchmark)")
		benchtime = flag.String("benchtime", "300ms", "per-run benchtime")
		baseline  = flag.String("baseline", "BENCH_baseline.json", "committed baseline file")
		threshold = flag.Float64("threshold", 15, "max allowed regression percent on the median")
		update    = flag.Bool("update", false, "rewrite the baseline from this run instead of comparing")
	)
	flag.Parse()

	// Collect the samples over several separate go test invocations rather
	// than one -count=N run: inside one run a benchmark's N samples are
	// back-to-back, so a single contention burst inflates them all (min
	// included); spreading them across passes minutes apart means at least
	// one pass usually sees the machine unhindered.
	passes := 3
	if *count < passes {
		passes = *count
	}
	perPass := *count / passes
	procs := runtime.GOMAXPROCS(0)
	cal := calibrate()
	var outs strings.Builder
	for p := 0; p < passes; p++ {
		n := perPass
		if p == passes-1 {
			n = *count - perPass*(passes-1)
		}
		out, err := runBenchmarks(*pkg, *bench, *benchtime, n, procs)
		if err != nil {
			fmt.Fprintf(os.Stderr, "benchdiff: %v\n%s\n", err, out)
			os.Exit(2)
		}
		outs.WriteString(out)
		outs.WriteByte('\n')
		cal = math.Min(cal, calibrate())
	}
	stats := reduce(parseBench(outs.String(), procs))
	if len(stats) == 0 {
		fmt.Fprintf(os.Stderr, "benchdiff: no benchmarks matched %q\n", *bench)
		os.Exit(2)
	}

	if *update {
		meds := make(map[string]float64, len(stats))
		for name, s := range stats {
			meds[name] = s.median
		}
		bf := baselineFile{
			Bench: *bench, Benchtime: *benchtime, Count: *count,
			Go:            runtime.Version(),
			Note:          "refresh with `make bench-baseline` after intentional perf changes",
			CalibrationNs: cal,
			NsPerOp:       meds,
		}
		raw, err := json.MarshalIndent(bf, "", "  ")
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		if err := os.WriteFile(*baseline, append(raw, '\n'), 0o644); err != nil {
			fmt.Fprintln(os.Stderr, "benchdiff:", err)
			os.Exit(2)
		}
		fmt.Printf("benchdiff: wrote %s (%d benchmarks)\n", *baseline, len(meds))
		return
	}

	raw, err := os.ReadFile(*baseline)
	if err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: reading baseline: %v (run with -update to create it)\n", err)
		os.Exit(2)
	}
	var bf baselineFile
	if err := json.Unmarshal(raw, &bf); err != nil {
		fmt.Fprintf(os.Stderr, "benchdiff: parsing %s: %v\n", *baseline, err)
		os.Exit(2)
	}
	scale := 1.0
	if bf.CalibrationNs > 0 && cal > 0 {
		scale = cal / bf.CalibrationNs
		fmt.Printf("benchdiff: machine scale %.2fx vs baseline (calibration %.0f -> %.0f ns)\n",
			scale, bf.CalibrationNs, cal)
	}
	report, failed := compare(bf.NsPerOp, stats, *threshold, scale)
	fmt.Print(report)
	if failed {
		fmt.Fprintf(os.Stderr, "benchdiff: FAIL — median regression beyond %.0f%% (refresh via `make bench-baseline` only for intentional changes)\n", *threshold)
		os.Exit(1)
	}
	fmt.Printf("benchdiff: ok — %d benchmarks within %.0f%% of baseline\n", len(bf.NsPerOp), *threshold)
}

// runBenchmarks shells out to go test and returns the combined output.
// The explicit -cpu pins the suffix go test appends to every benchmark
// name, so parseBench knows exactly which suffix to strip.
func runBenchmarks(pkg, bench, benchtime string, count, procs int) (string, error) {
	cmd := exec.Command("go", "test", "-run", "^$", "-cpu", strconv.Itoa(procs),
		"-bench", bench, "-benchtime", benchtime, "-count", strconv.Itoa(count), pkg)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

// calibrate times a fixed single-core integer workload and returns the
// fastest of several rounds in nanoseconds. The loop exercises nothing
// from the repository, so a code regression cannot hide in it, while
// host-level slowness (CPU steal, thermal throttling, a slower runner)
// inflates it in the same proportion as the benchmarks.
func calibrate() float64 {
	const rounds = 5
	best := math.MaxFloat64
	for r := 0; r < rounds; r++ {
		start := time.Now()
		x := uint64(0x9E3779B97F4A7C15)
		for i := 0; i < 1<<23; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
		}
		calSink = x
		if ns := float64(time.Since(start).Nanoseconds()); ns < best {
			best = ns
		}
	}
	return best
}

// calSink keeps the calibration loop from being optimized away.
var calSink uint64

var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+\d+\s+([0-9.eE+]+) ns/op`)

// parseBench extracts every ns/op sample from go test -bench output run
// at -cpu procs, keyed by normalized benchmark name. With -count > 1 each
// benchmark yields several samples.
func parseBench(out string, procs int) map[string][]float64 {
	samples := make(map[string][]float64)
	for _, line := range strings.Split(out, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			continue
		}
		name := normalizeName(m[1], procs)
		samples[name] = append(samples[name], ns)
	}
	return samples
}

// normalizeName strips the Benchmark prefix and the "-<procs>" suffix go
// test appends when a benchmark runs at -cpu procs. At procs == 1 go test
// appends nothing, so nothing is stripped: a trailing "-256" there is part
// of the benchmark's own name.
func normalizeName(name string, procs int) string {
	name = strings.TrimPrefix(name, "Benchmark")
	if procs == 1 {
		return name
	}
	return strings.TrimSuffix(name, "-"+strconv.Itoa(procs))
}

// benchStat is one benchmark's reduced samples: the median ns/op (the
// point estimate reported and stored in baselines) and the minimum (the
// noise filter — the machine's best demonstrated speed this run).
type benchStat struct {
	median float64
	min    float64
}

// reduce collapses each benchmark's samples to median and min (median is
// the mean of the two middle samples for even counts).
func reduce(samples map[string][]float64) map[string]benchStat {
	out := make(map[string]benchStat, len(samples))
	for name, s := range samples {
		sorted := append([]float64(nil), s...)
		sort.Float64s(sorted)
		n := len(sorted)
		med := sorted[n/2]
		if n%2 == 0 {
			med = (sorted[n/2-1] + sorted[n/2]) / 2
		}
		out[name] = benchStat{median: med, min: sorted[0]}
	}
	return out
}

// compare renders the per-benchmark delta table and reports failure when
// any baseline benchmark regressed beyond thresholdPct or is missing
// from the run (a silently vanished benchmark must not pass the gate).
// Current samples are divided by scale (this machine's calibration-loop
// time relative to the baseline machine's) before comparing, and a
// regression additionally requires both the median and the fastest
// sample to exceed the threshold: when only the median does, some
// samples still hit the baseline speed, so the slowdown is scheduler
// noise, not the code.
func compare(baseline map[string]float64, current map[string]benchStat, thresholdPct, scale float64) (string, bool) {
	names := make([]string, 0, len(baseline))
	for name := range baseline {
		names = append(names, name)
	}
	sort.Strings(names)
	var b strings.Builder
	failed := false
	for _, name := range names {
		base := baseline[name]
		cur, ok := current[name]
		if !ok {
			fmt.Fprintf(&b, "%-60s MISSING from run (baseline %.0f ns/op)\n", name, base)
			failed = true
			continue
		}
		delta := 100 * (cur.median/scale - base) / base
		deltaMin := 100 * (cur.min/scale - base) / base
		status := "ok"
		switch {
		case delta > thresholdPct && deltaMin > thresholdPct:
			status = "REGRESSION"
			failed = true
		case delta > thresholdPct:
			status = fmt.Sprintf("noisy (min %+.1f%%)", deltaMin)
		case delta < -thresholdPct:
			status = "improved"
		}
		fmt.Fprintf(&b, "%-60s %12.0f -> %12.0f ns/op  %+6.1f%%  %s\n", name, base, cur.median/scale, delta, status)
	}
	extra := make([]string, 0)
	for name := range current {
		if _, ok := baseline[name]; !ok {
			extra = append(extra, name)
		}
	}
	sort.Strings(extra)
	for _, name := range extra {
		fmt.Fprintf(&b, "%-60s %12s    %12.0f ns/op   (new — not in baseline, refresh to gate it)\n",
			name, "-", current[name].median)
	}
	return b.String(), failed
}
