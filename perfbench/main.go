// Command perfbench is the repository's serving benchmark. In one
// process it stands up the real HTTP front doors on loopback listeners —
// serve.NewHandler on each node, cluster.NewHandler in front of node
// handlers for the router — configured the way cmd/synserve and
// cmd/synrouter configure them, drives one workload for a fixed window,
// checks every answer against its own ground truth, and prints one JSON
// result line. A traced run (-trace 1) prints per-layer metrics instead
// and writes spans and a report. See README.md.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"sync"
	"time"
)

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int64             `json:"attempted"`
	Failed    int64             `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func main() {
	var o options
	flag.StringVar(&o.workload, "workload", "", "workload: point-hot, routed-scan or ingest-mixed")
	flag.Int64Var(&o.seed, "seed", 1, "input seed")
	flag.Float64Var(&o.seconds, "seconds", 20, "measurement window in seconds")
	traced := flag.Int("trace", 0, "1 = traced run: print per-layer metrics, write spans and a report")
	flag.IntVar(&o.reps, "reps", 0, "cold starts per run, setup_s being their median (0 = 5, or 3 on routed-scan)")
	flag.DurationVar(&o.warmup, "warmup", time.Second, "unmeasured load before the window")
	flag.StringVar(&o.outDir, "out", filepath.Join(".bench_build", "perfbench", "trace"), "directory for the traced run's spans and report")
	flag.StringVar(&o.tmpDir, "tmp", filepath.Join(".bench_build", "perfbench", "tmp"), "directory for write-ahead logs")
	flag.Parse()
	o.trace = *traced == 1
	if o.seconds <= 0 || o.reps < 0 {
		fatal(errors.New("-seconds must be positive and -reps not negative"))
	}
	if o.reps == 0 {
		// A routed cold start builds both nodes, so it takes twice as long.
		o.reps = 5
		if o.workload == routedScan {
			o.reps = 3
		}
	}
	res, err := run(o)
	if err != nil {
		fatal(err)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perfbench:", err)
	os.Exit(1)
}

func seconds(s float64) time.Duration { return time.Duration(s * float64(time.Second)) }

// run executes one benchmark run: reps cold starts (the last one keeps
// serving), a warm-up, the measured window and, when tracing, a second
// window with tracing on followed by the layer replays.
func run(o options) (result, error) {
	calBefore := calibrate()
	b, err := newBench(o)
	if err != nil {
		return result{}, err
	}
	if o.workload == ingestMixed {
		if err := os.MkdirAll(o.tmpDir, 0o755); err != nil {
			return result{}, err
		}
	}
	var setups []float64
	for rep := 0; rep < o.reps; rep++ {
		runtime.GC()
		st, d, err := b.coldStart(rep)
		if err != nil {
			return result{}, err
		}
		setups = append(setups, d.Seconds())
		if rep < o.reps-1 {
			st.close()
			b.client.CloseIdleConnections()
			continue
		}
		b.st = st
	}
	defer b.st.close()
	// The builds leave a large, mostly dead heap; collect it and return it
	// to the OS now, so the scavenger does not do that during the window.
	debug.FreeOSMemory()

	stopWriter := func() {}
	if o.workload == ingestMixed {
		b.truth.start(b.st.nodes[0].db.Engine().Version())
		stop := make(chan struct{})
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			b.writeLoop(time.Now(), stop)
		}()
		stopWriter = func() {
			close(stop)
			wg.Wait()
		}
	}
	b.readPhase(o.warmup, nil)
	w := b.newWindow()
	b.readPhase(seconds(o.seconds), w)
	var tw *window
	var before, after state
	if o.trace {
		tw = b.newWindow()
		before = b.takeState()
		b.tr.on.Store(true)
		b.readPhase(seconds(o.seconds), tw)
		b.tr.on.Store(false)
		after = b.takeState()
	}
	stopWriter()
	heap := heapMB()
	calAfter := calibrate()
	b.client.CloseIdleConnections()

	if len(w.lat) == 0 || (tw != nil && len(tw.lat) == 0) {
		return result{}, errNoReads
	}
	res := result{Attempted: b.attempted.Load(), Failed: b.failed.Load()}
	res.Correct = res.Failed == 0 && res.Attempted > 0
	p50, p99, rate := w.sliceStats()
	summary := fmt.Sprintf("%s seed=%d: %d reads in %.1fs, setup %v s, heap %.2f MB, host calib %.1f/%.1f ms",
		o.workload, o.seed, len(w.lat), w.end.Sub(w.start).Seconds(), round3(setups), heap, calBefore, calAfter)
	if o.workload == ingestMixed {
		wl, late, lag := b.writeStats(w)
		summary += fmt.Sprintf(", %d writes p50 %.3f p99 %.3f ms (late p99 %.3f ms), visible lag p50 %.1f ms",
			len(wl), quantile(wl, .5)/1e6, quantile(wl, .99)/1e6, quantile(late, .99)/1e6, quantile(lag, .5)/1e6)
	}
	summary += fmt.Sprintf(", read p50 by slice %v µs", round3(scale(w.sliceP50s, 1e-3)))
	fmt.Fprintln(os.Stderr, "perfbench:", summary)
	for _, m := range b.failMsgs {
		fmt.Fprintln(os.Stderr, "perfbench: failed:", m)
	}
	if !o.trace {
		res.Metrics = map[string]metric{
			"setup_s":       {median(setups), "s"},
			"query_p50_ms":  {p50 / 1e6, "ms"},
			"query_p99_ms":  {p99 / 1e6, "ms"},
			"answers_per_s": {rate, "1/s"},
			"relerr_p50":    {w.rel.median(), "ratio"},
			"heap_mb":       {heap, "MB"},
		}
		return res, nil
	}
	res.Metrics, err = b.traceReport(w, tw, before, after, (calBefore+calAfter)/2)
	return res, err
}

func round3(xs []float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = float64(int(x*1000+0.5)) / 1000
	}
	return out
}

func scale(xs []float64, f float64) []float64 {
	out := make([]float64, len(xs))
	for i, x := range xs {
		out[i] = x * f
	}
	return out
}
