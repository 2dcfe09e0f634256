// Command synserve serves range-aggregate queries over HTTP from
// snapshot-swapped synopses: ingest flows into the engine, a debounced
// background rebuild republishes the synopses, and queries always answer
// from a consistent immutable snapshot without blocking on rebuilds.
//
// Usage:
//
//	synserve -data data.csv -syn h:OPT-A:32 -syn s:SAP1:40:SUM
//	synserve -domain 1024 -addr 127.0.0.1:9736 -debounce 20ms
//	synserve -data-dir /var/lib/synserve -domain 1024 -fsync always
//
// With -data-dir the server is durable: every acknowledged mutation is
// appended to a write-ahead log before the HTTP response, checkpoints
// ride along with the debounced rebuilds, and a restart recovers the
// exact pre-crash state (newest checkpoint plus replayed log tail).
//
// With -follow the server is a replica: it pulls the named primary's
// /checkpoint on an interval and installs it (synserve -domain 1024
// -follow http://primary:9736). Replicas report replication state on
// /healthz and stay unready until their first successful install; the
// cluster router (cmd/synrouter) fails reads over to them.
//
// Endpoints: /health /healthz /checkpoint /query /query/batch /ingest
// /load /rebuild /synopsis /metrics /metrics.prom /trace (see
// internal/serve.NewHandler), plus /debug/pprof/ with -pprof. Spans
// slower than -slow-op are logged to stderr. SIGINT/SIGTERM drain
// in-flight requests, then write a final checkpoint, before exiting.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/cluster"
	"rangeagg/internal/dataset"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/obs"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

type synList []string

func (s *synList) String() string     { return strings.Join(*s, ",") }
func (s *synList) Set(v string) error { *s = append(*s, v); return nil }

func main() {
	var syns synList
	var (
		addr       = flag.String("addr", "127.0.0.1:9736", "listen address")
		dataPath   = flag.String("data", "", "distribution CSV to preload (optional)")
		domain     = flag.Int("domain", 0, "attribute domain size (required without -data)")
		debounce   = flag.Duration("debounce", 50*time.Millisecond, "quiet period before a rebuild")
		maxLag     = flag.Duration("maxlag", 1*time.Second, "max snapshot staleness under sustained writes")
		readTO     = flag.Duration("read-timeout", 10*time.Second, "HTTP read timeout")
		writeTO    = flag.Duration("write-timeout", 30*time.Second, "HTTP write timeout")
		shutdownTO = flag.Duration("shutdown-timeout", 10*time.Second, "graceful-shutdown drain window")
		dataDir    = flag.String("data-dir", "", "durable data directory (write-ahead log + checkpoints)")
		fsyncMode  = flag.String("fsync", "always", "WAL fsync policy: always, interval, or off")
		ckptEvery  = flag.Int64("checkpoint-every", 1024, "checkpoint once this many WAL records accumulate")
		pprofOn    = flag.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/ on the listen address")
		slowOp     = flag.Duration("slow-op", 500*time.Millisecond, "log spans slower than this to stderr (0 disables)")
		nodeID     = flag.String("node-id", "", "cluster node id reported on /healthz (optional)")
		follow     = flag.String("follow", "", "replicate from this primary's /checkpoint (replica mode; excludes -data-dir)")
		followEv   = flag.Duration("follow-every", 2*time.Second, "replication pull interval with -follow")
		ingestMode = flag.String("ingest-mode", "rebuild", "write-path maintenance: rebuild (debounced full/partial rebuilds) or incremental (absorb deltas in place, escalate on SSE drift)")
		driftThr   = flag.Float64("drift-threshold", 0, "incremental mode: workload-SSE drift ratio that triggers boundary repair, then escalation (0 = default 4)")
	)
	flag.Var(&syns, "syn", "synopsis spec name:METHOD:budgetWords[:COUNT|SUM] (repeatable)")
	flag.Parse()

	if *slowOp > 0 {
		obs.SetSlowThreshold(*slowOp)
		obs.SetSlowLogger(func(sp obs.SpanData) {
			fmt.Fprintf(os.Stderr, "synserve: slow op %s %.1fms %v\n", sp.Name, sp.DurationMs, sp.Attrs)
		})
	}

	specs, err := parseSpecs(syns)
	if err != nil {
		fatal(err)
	}
	mode, err := ingest.ParseMode(*ingestMode)
	if err != nil {
		fatal(err)
	}
	cfg := serve.Config{
		Debounce: *debounce, MaxLag: *maxLag, NodeID: *nodeID,
		Ingest: ingest.Config{Mode: mode, DriftThreshold: *driftThr},
	}
	if *follow != "" && *dataDir != "" {
		fatal(fmt.Errorf("-follow and -data-dir are exclusive: a replica's state is owned by its primary's WAL, not a local one"))
	}

	var eng *engine.Engine
	var db *wal.DB
	if *dataDir != "" {
		db, err = openDurable(*dataDir, *dataPath, *domain, *fsyncMode, *ckptEvery)
		if err != nil {
			fatal(err)
		}
		defer db.Close()
		eng = db.Engine()
		cfg.WAL = db
	} else if eng, err = newEngine(*dataPath, *domain); err != nil {
		fatal(err)
	}

	srv, err := serve.New(eng, specs, cfg)
	if err != nil {
		fatal(err)
	}
	defer srv.Close()
	if banner := buildBanner(); banner != "" {
		// Per-method build histograms: the initial snapshot (and, when
		// recovering, any synopses rebuilt from the checkpoint) has
		// already fed them.
		fmt.Fprintf(os.Stderr, "synserve: build timings: %s\n", banner)
	}

	if *follow != "" {
		follower := &cluster.Follower{Primary: *follow, Server: srv, Every: *followEv, AdoptSpecs: true}
		follower.Start()
		defer follower.Stop()
		fmt.Fprintf(os.Stderr, "synserve: replicating from %s every %s\n", follower.Primary, *followEv)
	}

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fatal(err)
	}
	mux := http.NewServeMux()
	mux.Handle("/", serve.NewHandler(srv, serve.NewMetrics()))
	if *pprofOn {
		mux.HandleFunc("/debug/pprof/", pprof.Index)
		mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
		mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
		mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
		mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
		fmt.Fprintf(os.Stderr, "synserve: pprof enabled at http://%s/debug/pprof/\n", *addr)
	}
	httpSrv := &http.Server{
		Handler:      mux,
		ReadTimeout:  *readTO,
		WriteTimeout: *writeTO,
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.Serve(ln) }()
	fmt.Fprintf(os.Stderr, "synserve: listening on %s (domain %d, %d synopses)\n",
		ln.Addr(), eng.Domain(), len(specs))

	select {
	case err := <-errCh:
		fatal(err)
	case <-ctx.Done():
	}
	drainCtx, cancel := context.WithTimeout(context.Background(), *shutdownTO)
	defer cancel()
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		fatal(err)
	}
	srv.Close()
	if db != nil {
		// A final checkpoint makes the next boot replay-free; the deferred
		// db.Close still syncs the log if the checkpoint fails.
		if err := db.Checkpoint(); err != nil {
			fmt.Fprintln(os.Stderr, "synserve: final checkpoint:", err)
		}
	}
	fmt.Fprintln(os.Stderr, "synserve: shutdown complete")
}

// openDurable opens (or initializes) the write-ahead-logged engine in
// dataDir. A CSV preload seeds a fresh directory only; on recovery the
// directory is authoritative and -data is ignored.
func openDurable(dataDir, dataPath string, domain int, fsyncMode string, ckptEvery int64) (*wal.DB, error) {
	policy, err := wal.ParseFsyncPolicy(fsyncMode)
	if err != nil {
		return nil, err
	}
	var counts []int64
	if dataPath != "" {
		f, err := os.Open(dataPath)
		if err != nil {
			return nil, err
		}
		d, err := dataset.ReadCSV(f)
		f.Close()
		if err != nil {
			return nil, err
		}
		counts = d.Counts
		domain = d.N()
	}
	db, rec, err := wal.Open(dataDir, wal.Options{
		Name:            "synserve",
		Domain:          domain,
		Fsync:           policy,
		CheckpointEvery: ckptEvery,
	})
	if err != nil {
		return nil, err
	}
	if rec.Fresh {
		if counts != nil {
			if err := db.Load(counts); err != nil {
				db.Close()
				return nil, err
			}
		}
		fmt.Fprintf(os.Stderr, "synserve: initialized data dir %s (domain %d)\n",
			dataDir, db.Engine().Domain())
	} else {
		if counts != nil {
			fmt.Fprintln(os.Stderr, "synserve: -data ignored: recovering existing data dir")
		}
		fmt.Fprintf(os.Stderr, "synserve: recovered data dir %s (checkpoint %d, replayed %d records, torn=%v)\n",
			dataDir, rec.Checkpoint, rec.Replayed, rec.Torn)
	}
	return db, nil
}

// newEngine builds the column either from a CSV distribution or empty over
// an explicit domain.
func newEngine(dataPath string, domain int) (*engine.Engine, error) {
	if dataPath == "" {
		if domain <= 0 {
			return nil, fmt.Errorf("either -data or a positive -domain is required")
		}
		return engine.New("synserve", domain)
	}
	f, err := os.Open(dataPath)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	d, err := dataset.ReadCSV(f)
	if err != nil {
		return nil, err
	}
	eng, err := engine.New("synserve", d.N())
	if err != nil {
		return nil, err
	}
	if err := eng.Load(d.Counts); err != nil {
		return nil, err
	}
	return eng, nil
}

// parseSpecs resolves -syn flags of the form name:METHOD:budget[:metric].
func parseSpecs(syns []string) ([]engine.SynopsisSpec, error) {
	specs := make([]engine.SynopsisSpec, 0, len(syns))
	for _, s := range syns {
		parts := strings.Split(s, ":")
		if len(parts) != 3 && len(parts) != 4 {
			return nil, fmt.Errorf("-syn %q: want name:METHOD:budgetWords[:COUNT|SUM]", s)
		}
		method, err := build.ParseMethod(parts[1])
		if err != nil {
			return nil, fmt.Errorf("-syn %q: %w", s, err)
		}
		budget, err := strconv.Atoi(parts[2])
		if err != nil {
			return nil, fmt.Errorf("-syn %q: budget: %w", s, err)
		}
		metric := engine.Count
		if len(parts) == 4 {
			if metric, err = engine.ParseMetric(parts[3]); err != nil {
				return nil, fmt.Errorf("-syn %q: %w", s, err)
			}
		}
		specs = append(specs, engine.SynopsisSpec{
			Name:    parts[0],
			Metric:  metric,
			Options: build.Options{Method: method, BudgetWords: budget},
		})
	}
	return specs, nil
}

// buildBanner condenses the per-method build histograms into one line
// for the startup/recovery banner (e.g. "SAP0 ×1 p50=12.1ms max=12.1ms").
func buildBanner() string {
	var parts []string
	obs.Default.EachHistogram("rangeagg_build_seconds", func(_ string, labels []obs.Label, snap obs.HistSnapshot) {
		name := ""
		for _, l := range labels {
			if l.Key == "method" {
				name = l.Value
			}
		}
		if name == "" || snap.Count == 0 {
			return
		}
		parts = append(parts, fmt.Sprintf("%s ×%d p50=%.1fms max=%.1fms",
			name, snap.Count, snap.Quantile(0.50)*1e3, snap.MaxSeconds*1e3))
	})
	return strings.Join(parts, ", ")
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "synserve:", err)
	os.Exit(1)
}
