// Command synquery answers range-sum queries from a serialized synopsis,
// optionally comparing against the exact answers from the original data,
// or remotely through a synrouter (or a single synserve node — the query
// surface is the same).
//
// Usage:
//
//	synquery -syn synopsis.json -q 3:40 -q 0:126
//	synquery -syn synopsis.json -data data.csv -q 3:40      # with exact
//	synquery -syn synopsis.json -data data.csv -random 100  # workload report
//	synquery -router http://127.0.0.1:9800 -q 3:40          # via cluster router
//	synquery -router http://127.0.0.1:9800 -name h -maxerr 5 -q 3:40
//
// Remote queries retry transient failures (connection refused, 5xx)
// with exponential backoff and jitter — a router briefly losing a node,
// or a node mid-restart, looks like a slow answer rather than an error.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"os"
	"strconv"
	"strings"
	"time"

	"rangeagg"
	"rangeagg/internal/cluster"
	"rangeagg/internal/dataset"
	"rangeagg/internal/method"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/serve"
)

type queryList []string

func (q *queryList) String() string     { return strings.Join(*q, ",") }
func (q *queryList) Set(s string) error { *q = append(*q, s); return nil }

func main() {
	var queries queryList
	var (
		synPath  = flag.String("syn", "", "serialized synopsis (required)")
		dataPath = flag.String("data", "", "original distribution CSV for exact comparison (optional)")
		random   = flag.Int("random", 0, "evaluate a random workload of this size (requires -data)")
		seed     = flag.Int64("seed", 1, "workload seed")
		maxErr   = flag.Float64("maxerr", math.NaN(),
			"per-query error budget: answer from the synopsis only when its bound is within this, else fall back to the exact data (requires -data)")
		routerURL = flag.String("router", "", "query a synrouter (or synserve) at this base URL instead of a local synopsis file")
		synName   = flag.String("name", "", "remote synopsis name to pin (with -router; default: server picks)")
		metric    = flag.String("metric", "", "remote metric COUNT or SUM (with -router; default COUNT)")
		retries   = flag.Int("retries", 5, "remote attempts per query on connection-refused/5xx (with -router)")
	)
	flag.Var(&queries, "q", "query range a:b (repeatable)")
	flag.Parse()

	if *routerURL != "" {
		if err := runRemote(*routerURL, *synName, *metric, queries, *maxErr, *retries); err != nil {
			fatal(err)
		}
		return
	}
	if *synPath == "" {
		fatal(fmt.Errorf("-syn is required (or -router for remote queries)"))
	}
	f, err := os.Open(*synPath)
	if err != nil {
		fatal(err)
	}
	syn, err := rangeagg.ReadSynopsis(f)
	f.Close()
	if err != nil {
		fatal(err)
	}

	var counts []int64
	if *dataPath != "" {
		df, err := os.Open(*dataPath)
		if err != nil {
			fatal(err)
		}
		d, err := dataset.ReadCSV(df)
		df.Close()
		if err != nil {
			fatal(err)
		}
		if d.N() != syn.N() {
			fatal(fmt.Errorf("data has %d values but synopsis covers %d", d.N(), syn.N()))
		}
		counts = d.Counts
	}

	// With -maxerr the queries go through the error-budget planner: the
	// synopsis answers only when its per-range bound (rebuilt from the
	// data) is within the budget, otherwise the exact data does.
	var (
		planner *plan.Planner
		view    *plan.View
	)
	if !math.IsNaN(*maxErr) {
		if counts == nil {
			fatal(fmt.Errorf("-maxerr requires -data (to certify bounds and fall back exactly)"))
		}
		if *maxErr < 0 {
			fatal(fmt.Errorf("-maxerr must be non-negative, got %g", *maxErr))
		}
		tab := prefix.NewTable(counts)
		em, _ := method.ErrorBoundFor(tab, syn)
		planner = plan.New(0)
		view = &plan.View{
			Domain:  syn.N(),
			Sources: []plan.Source{plan.NewSource(syn.Name(), syn, em)},
			Exact:   func(a, b int) float64 { return tab.SumF(a, b) },
		}
	}

	fmt.Printf("synopsis %s: n=%d, %d words\n", syn.Name(), syn.N(), syn.StorageWords())
	for _, qs := range queries {
		a, b, err := parseRange(qs, syn.N())
		if err != nil {
			fatal(err)
		}
		if planner != nil {
			ans, err := planner.Query(view, "", a, b, *maxErr)
			if err != nil {
				fatal(err)
			}
			var exact int64
			for i := a; i <= b; i++ {
				exact += counts[i]
			}
			fmt.Printf("  s[%d,%d] ≈ %.2f ±%.2f   path %s   exact %d   abs.err %.2f\n",
				a, b, ans.Value, ans.Bound, ans.Path, exact, abs(ans.Value-float64(exact)))
			continue
		}
		est := syn.Estimate(a, b)
		if counts != nil {
			var exact int64
			for i := a; i <= b; i++ {
				exact += counts[i]
			}
			fmt.Printf("  s[%d,%d] ≈ %.2f   exact %d   abs.err %.2f\n",
				a, b, est, exact, abs(est-float64(exact)))
		} else {
			fmt.Printf("  s[%d,%d] ≈ %.2f\n", a, b, est)
		}
	}

	if *random > 0 {
		if counts == nil {
			fatal(fmt.Errorf("-random requires -data"))
		}
		qs := rangeagg.RandomRanges(syn.N(), *random, *seed)
		m := rangeagg.Evaluate(counts, syn, qs)
		fmt.Printf("workload of %d random ranges: RMS %.3f  MAE %.3f  max-abs %.3f  mean-rel %.4f\n",
			m.Queries, m.RMS, m.MAE, m.MaxAbs, m.MeanRel)
		fmt.Printf("SSE over all ranges: %.6g\n", rangeagg.SSE(counts, syn))
	}
}

// runRemote answers the queries over HTTP against a router or node.
// Transient failures — connection refused, any 5xx — are retried with
// exponential backoff and jitter; 4xx responses are permanent (the
// request itself is bad) and fail immediately.
func runRemote(base, name, metric string, queries []string, maxErr float64, retries int) error {
	base = strings.TrimRight(base, "/")
	if !strings.Contains(base, "://") {
		base = "http://" + base
	}
	if retries < 1 {
		retries = 1
	}
	client := &http.Client{Timeout: 10 * time.Second}
	for _, qs := range queries {
		a, b, err := parseRange(qs, 0)
		if err != nil {
			return err
		}
		p := serve.QueryParams{Synopsis: name, Metric: metric, A: a, B: b}
		if !math.IsNaN(maxErr) {
			p.MaxErr = &maxErr
		}
		// A node's answer decodes too: it is the routed one without
		// partial, windows and versions.
		var ans cluster.RoutedAnswer
		if err := getWithRetry(client, base+"/query?"+p.Encode(), retries, &ans); err != nil {
			return fmt.Errorf("query %s: %w", qs, err)
		}
		line := fmt.Sprintf("  s[%d,%d] ≈ %.2f", a, b, ans.Value)
		if ans.Err != nil {
			line += fmt.Sprintf(" ±%.2f", *ans.Err)
		}
		if ans.Path != "" {
			line += "   path " + ans.Path
		}
		if ans.Source != "" {
			line += "   source " + ans.Source
		}
		if ans.Partial {
			line += "   PARTIAL (some windows unserved)"
		}
		fmt.Println(line)
	}
	return nil
}

// getWithRetry GETs the URL and decodes its answer into out, retrying
// transient failures with exponential backoff (50ms base, doubling, up
// to 50% jitter).
func getWithRetry(client *http.Client, u string, attempts int, out any) error {
	backoff := 50 * time.Millisecond
	var lastErr error
	for attempt := 0; attempt < attempts; attempt++ {
		if attempt > 0 {
			d := backoff << (attempt - 1)
			if d > 2*time.Second {
				d = 2 * time.Second
			}
			d += time.Duration(rand.Int63n(int64(d)/2 + 1))
			fmt.Fprintf(os.Stderr, "synquery: retrying in %s: %v\n", d.Round(time.Millisecond), lastErr)
			time.Sleep(d)
		}
		resp, err := client.Get(u)
		if err != nil {
			lastErr = err // connection refused, timeout, DNS — transient
			continue
		}
		err = serve.CheckResponse(resp)
		if err == nil {
			err = json.NewDecoder(io.LimitReader(resp.Body, 1<<20)).Decode(out)
			resp.Body.Close()
			if err != nil {
				return fmt.Errorf("decoding answer: %w", err)
			}
			return nil
		}
		resp.Body.Close()
		var se *serve.StatusError
		if errors.As(err, &se) && se.Permanent() {
			return err // the request is bad
		}
		lastErr = err
	}
	return fmt.Errorf("after %d attempts: %w", attempts, lastErr)
}

// parseRange parses a query a:b; a positive n also requires it to lie
// in the domain [0,n).
func parseRange(s string, n int) (int, int, error) {
	parts := strings.SplitN(s, ":", 2)
	if len(parts) != 2 {
		return 0, 0, fmt.Errorf("query %q: want a:b", s)
	}
	a, err := strconv.Atoi(parts[0])
	if err != nil {
		return 0, 0, fmt.Errorf("query %q: %v", s, err)
	}
	b, err := strconv.Atoi(parts[1])
	if err != nil {
		return 0, 0, fmt.Errorf("query %q: %v", s, err)
	}
	if n > 0 && (a < 0 || b >= n || a > b) {
		return 0, 0, fmt.Errorf("query %q outside domain [0,%d)", s, n)
	}
	return a, b, nil
}

func abs(x float64) float64 {
	if x < 0 {
		return -x
	}
	return x
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "synquery:", err)
	os.Exit(1)
}
