// Package serve is the concurrent query-serving layer in front of the
// engine: it publishes each column's exact prefix tables and synopses as
// one immutable Snapshot behind an atomic pointer, answers single and
// batched range-aggregate queries from whatever snapshot is current, and
// rebuilds snapshots off the hot path behind a mutation-driven debouncer.
// Queries never take the engine lock and never block on a rebuild; a
// rebuild never publishes partial state (old snapshot or new, never a
// mix).
package serve

import (
	"context"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/method"
	"rangeagg/internal/obs"
	"rangeagg/internal/parallel"
	"rangeagg/internal/plan"
	"rangeagg/internal/prefix"
	"rangeagg/internal/wal"
)

// Serving-layer metrics (process-wide): snapshot rebuild latency and
// swap count, the published data version, and per-batch query latency.
// Endpoint-level HTTP latency lives in Metrics (metrics.go) instead, so
// each handler keeps its own registry.
var (
	rebuildSeconds    = obs.Default.Histogram("rangeagg_serve_rebuild_seconds")
	queryBatchSeconds = obs.Default.Histogram("rangeagg_serve_query_batch_seconds")
	snapshotSwaps     = obs.Default.Counter("rangeagg_serve_snapshot_swaps_total")
	snapshotVersion   = obs.Default.Gauge("rangeagg_serve_snapshot_version")
)

// fanOutBatch is the smallest batch QueryBatch spreads over the worker
// pool; smaller batches evaluate inline.
const fanOutBatch = 128

// Config tunes the server; zero values select the defaults.
type Config struct {
	// Debounce is the quiet period after a mutation before the automatic
	// rebuild fires (default 50ms). Further mutations inside the window
	// push the rebuild back, up to MaxLag.
	Debounce time.Duration
	// MaxLag caps how stale the published snapshot may grow while
	// mutations keep arriving (default 20×Debounce).
	MaxLag time.Duration
	// WAL, when non-nil, makes the server durable: the engine must be
	// the DB's engine, every mutation path (ingest, load) appends its log
	// record before the call acknowledges, and a checkpoint piggybacks on
	// the debounced rebuild once enough records accumulate.
	WAL *wal.DB
	// RecoveredShards is ignored; it stays only because perfbench sets it.
	RecoveredShards []wal.ShardMerge
	// NodeID names this node in /healthz (cluster deployments); empty is
	// fine for standalone servers.
	NodeID string
	// Ingest configures incremental synopsis maintenance
	// (internal/ingest). In ModeIncremental, rebuilds whose mutations are
	// confined to a value window maintain maintainable synopses in place
	// through the absorb/reopt/repair ladder, escalating to the
	// dirty-segment or full rebuild paths only when the workload-driven
	// SSE-drift trigger persists past a repair. The zero value
	// (ModeRebuild) keeps the pre-ingest rebuild-per-window behaviour.
	Ingest ingest.Config
}

func (c Config) withDefaults() Config {
	if c.Debounce <= 0 {
		c.Debounce = 50 * time.Millisecond
	}
	if c.MaxLag <= 0 {
		c.MaxLag = 20 * c.Debounce
	}
	return c
}

// Server publishes snapshots of one engine column and serves queries from
// them. It is safe for concurrent use.
type Server struct {
	eng *engine.Engine
	cfg Config

	// planner routes budgeted and synopsis queries through the cheapest
	// path meeting each one's error bound.
	planner *plan.Planner

	// snap is the published snapshot, which is also the node's synopsis
	// registry: its specs are what the next rebuild refreshes.
	snap atomic.Pointer[Snapshot]

	// rebuildMu serializes snapshot construction and every change to the
	// spec list; queries never take it.
	rebuildMu sync.Mutex

	// watch is the mutation window the engine keeps for this server:
	// Rebuild captures it with the counts, and its dirty-since time is
	// the /healthz staleness signal.
	watch *engine.Watch

	// swappedAt is when the served snapshot was published (unix nanos).
	swappedAt atomic.Int64
	// follow is the replication state a Follower reports (nil when this
	// node follows no primary).
	follow atomic.Pointer[FollowState]

	rebuilds atomic.Int64
	lastErr  atomic.Pointer[rebuildError]

	dirty     chan struct{}
	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

type rebuildError struct{ err error }

// Query is one range-aggregate request. A named Synopsis answers
// approximately from the snapshot's estimator; an empty name answers
// exactly (per Metric) from the snapshot's prefix tables. A non-nil
// MaxErr is an error budget: the planner answers by the cheapest path
// whose error bound is within it, escalating through finer synopses and
// finally the exact tables. Synopsis and MaxErr compose — the named
// synopsis is probed first, escalation starts from there.
type Query struct {
	Synopsis string
	Metric   engine.Metric
	A, B     int
	MaxErr   *float64
}

// Result is one answer. Err is set per query (e.g. unknown synopsis
// name); the batch as a whole never fails. Bound bounds |exact − Value|
// (+Inf when the answering synopsis has no error model); Rigorous
// reports whether it is a guarantee; Path and Source say how the
// planner answered.
type Result struct {
	Value    float64
	Bound    float64
	Rigorous bool
	Path     plan.Path
	Source   string
	Err      error
}

// New builds the initial snapshot synchronously (so a successfully
// constructed Server always serves) and starts the rebuild debouncer.
// Spec names must be unique. Callers must Close the server to stop it.
func New(eng *engine.Engine, specs []engine.SynopsisSpec, cfg Config) (*Server, error) {
	for i, sp := range specs {
		if specIndex(specs[:i], sp.Name) >= 0 {
			return nil, fmt.Errorf("serve: synopsis %q registered twice", sp.Name)
		}
	}
	s := &Server{
		eng:   eng,
		watch: eng.Watch(),
		cfg:   cfg.withDefaults(),
		dirty: make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	s.planner = plan.New(0)
	if err := s.rebuild(specs); err != nil {
		s.watch.Close()
		return nil, err
	}
	s.declareSpecs()
	go s.debounceLoop()
	return s, nil
}

// specIndex returns the position of the spec named name, or -1.
func specIndex(specs []engine.SynopsisSpec, name string) int {
	for i, sp := range specs {
		if sp.Name == name {
			return i
		}
	}
	return -1
}

// Close stops the debouncer and unregisters the server's mutation
// window. The last published snapshot keeps serving.
func (s *Server) Close() {
	s.closeOnce.Do(func() {
		close(s.stop)
		s.watch.Close()
	})
	<-s.done
}

// Snapshot returns the currently published snapshot.
func (s *Server) Snapshot() *Snapshot { return s.snap.Load() }

// Rebuilds returns the number of snapshots published so far.
func (s *Server) Rebuilds() int64 { return s.rebuilds.Load() }

// LastError reports the most recent rebuild failure, or nil. A failed
// rebuild keeps the previous snapshot serving.
func (s *Server) LastError() error {
	if p := s.lastErr.Load(); p != nil {
		return p.err
	}
	return nil
}

// Insert forwards to the engine — through the write-ahead log when the
// server is durable, so the record is on the log before the call
// returns — and schedules a debounced rebuild.
func (s *Server) Insert(value int, occurrences int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Insert(value, occurrences)
	} else {
		err = s.eng.Insert(value, occurrences)
	}
	if err != nil {
		return err
	}
	s.signalDirty()
	return nil
}

// Delete forwards to the engine (via the write-ahead log when durable)
// and schedules a debounced rebuild.
func (s *Server) Delete(value int, occurrences int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Delete(value, occurrences)
	} else {
		err = s.eng.Delete(value, occurrences)
	}
	if err != nil {
		return err
	}
	s.signalDirty()
	return nil
}

// Load forwards a bulk load to the engine (via the write-ahead log when
// durable) and schedules a debounced rebuild. The engine marks the
// precise span of the loaded mass, so a load confined to a value window
// keeps segmented rebuilds and incremental maintenance partial.
func (s *Server) Load(counts []int64) error {
	var err error
	if s.cfg.WAL != nil {
		err = s.cfg.WAL.Load(counts)
	} else {
		err = s.eng.Load(counts)
	}
	if err != nil {
		return err
	}
	s.signalDirty()
	return nil
}

// signalDirty schedules a debounced rebuild; the engine has already
// marked the mutation in the server's window.
func (s *Server) signalDirty() {
	select {
	case s.dirty <- struct{}{}:
	default: // a rebuild is already pending
	}
}

// AddSynopsis registers a synopsis spec and publishes a snapshot that
// includes it. A spec whose build fails is not registered.
func (s *Server) AddSynopsis(spec engine.SynopsisSpec) error {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	specs := s.snap.Load().specs()
	if specIndex(specs, spec.Name) >= 0 {
		return fmt.Errorf("serve: synopsis %q already registered", spec.Name)
	}
	if err := s.rebuild(append(specs, spec)); err != nil {
		return err
	}
	s.declareSpecs()
	return nil
}

// DropSynopsis republishes the current snapshot without the named
// synopsis, reporting whether it existed. It builds nothing.
func (s *Server) DropSynopsis(name string) bool {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	cur := s.snap.Load()
	i := specIndex(cur.specs(), name)
	if i < 0 {
		return false
	}
	next := *cur
	next.syns = append(append([]*Synopsis(nil), cur.syns[:i]...), cur.syns[i+1:]...)
	s.publish(&next)
	s.declareSpecs()
	return true
}

// declareSpecs hands the WAL the specs this server serves, so that every
// checkpoint declares them to replicas and to recovery. Callers hold
// rebuildMu or own the server exclusively.
func (s *Server) declareSpecs() {
	if s.cfg.WAL != nil {
		s.cfg.WAL.SetDeclaredSpecs(s.snap.Load().specs())
	}
}

// Query answers one request from the current snapshot.
func (s *Server) Query(q Query) (float64, error) {
	res, _ := s.QueryOne(q)
	return res.Value, res.Err
}

// QueryOne answers one request from the current snapshot with the full
// planned result (value, error bound, path) and the snapshot version.
func (s *Server) QueryOne(q Query) (Result, int64) {
	snap := s.snap.Load()
	return s.answer(snap, q, nil), snap.Version
}

// answer resolves one query against a pinned snapshot. Synopsis-less
// queries without a budget take the exact fast path; everything else
// goes through the planner, which attaches the error bound. A batch
// passes its chunk's tally t; a single query passes nil and is counted
// and timed on its own.
func (s *Server) answer(snap *Snapshot, q Query, t *plan.Tally) Result {
	if q.Synopsis == "" && q.MaxErr == nil {
		return Result{Value: float64(snap.exact(q.Metric, q.A, q.B)),
			Rigorous: true, Path: plan.PathExact, Source: "exact"}
	}
	metric := q.Metric
	if q.Synopsis != "" {
		syn, err := snap.Synopsis(q.Synopsis)
		if err != nil {
			return Result{Err: err}
		}
		// A pinned synopsis answers its own metric, whatever the query
		// says (matching the pre-planner Approx semantics).
		metric = syn.Metric
		if syn.ingest != nil {
			// Feed the drift trigger (sampled) of a maintained synopsis.
			syn.ingest.Observe(q.A, q.B)
		}
	}
	maxErr := math.NaN() // planner convention: NaN = no budget
	if q.MaxErr != nil {
		maxErr = *q.MaxErr
	}
	var ans plan.Answer
	var err error
	if t == nil {
		ans, err = s.planner.Query(snap.View(metric), q.Synopsis, q.A, q.B, maxErr)
	} else {
		ans, err = s.planner.Answer(snap.View(metric), q.Synopsis, q.A, q.B, maxErr, t)
	}
	if err != nil {
		return Result{Err: err}
	}
	return Result{Value: ans.Value, Bound: ans.Bound, Rigorous: ans.Rigorous,
		Path: ans.Path, Source: ans.Source}
}

// QueryBatch answers a batch of requests from one snapshot grab: every
// answer in the batch reflects the same data version (returned alongside
// the results), so concurrent rebuilds can never tear a batch. Large
// batches fan out over the shared worker pool. The batch is timed as a
// whole (rangeagg_serve_query_batch_seconds), and each chunk adds its
// planner work to the counters once.
func (s *Server) QueryBatch(qs []Query) ([]Result, int64) {
	_, span := obs.Start(context.Background(), "serve.query_batch")
	span.SetAttrInt("queries", int64(len(qs)))
	span.OnEnd(queryBatchSeconds.Observe)
	defer span.End()
	snap := s.snap.Load()
	out := make([]Result, len(qs))
	answer := func(lo, hi int) {
		var t plan.Tally
		for i := lo; i < hi; i++ {
			out[i] = s.answer(snap, qs[i], &t)
		}
		s.planner.Add(&t)
	}
	if len(qs) >= fanOutBatch {
		parallel.ForEachChunk(len(qs), 64, answer)
	} else {
		answer(0, len(qs))
	}
	return out, snap.Version
}

// Rebuild constructs a fresh snapshot from the engine's current data —
// prefix tables and every registered synopsis, built concurrently over
// the worker pool — and atomically swaps it in. On failure the previous
// snapshot keeps serving and the error is retained for LastError.
//
// Each spec is refreshed through build.Refresh from the previous
// snapshot's synopsis and the mutation window the engine kept for this
// server, so only the work the window proves necessary is done: reuse,
// incremental maintenance (Config.Ingest), a dirty-segment rebuild, or
// a full build — the last through the method's (1+ε)-approximate
// counterpart on domains at or above the engine's approx cutover.
func (s *Server) Rebuild() error {
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	return s.rebuild(s.snap.Load().specs())
}

// rebuild is Rebuild over the given spec list, which the published
// snapshot registers only when the build succeeds. Callers hold
// rebuildMu or own the server exclusively.
func (s *Server) rebuild(specs []engine.SynopsisSpec) error {
	_, span := obs.Start(context.Background(), "serve.rebuild")
	span.OnEnd(rebuildSeconds.Observe)
	defer span.End()
	span.SetAttrInt("specs", int64(len(specs)))

	// One locked read of the engine takes the counts, their version, the
	// mutation window and the approx cutover together; the SUM series is
	// derived locally so both metrics come from the same version. On failure the window is
	// handed back so the pending mutations are not lost.
	c := s.watch.Capture()
	fail := func(err error) error {
		s.watch.Restore(c)
		s.lastErr.Store(&rebuildError{err: err})
		return err
	}
	counts, version := c.Counts, c.Version
	sums := make([]int64, len(counts))
	var records int64
	for v, n := range counts {
		sums[v] = int64(v) * n
		records += n
	}

	prev := s.snap.Load()
	snap := &Snapshot{
		Version: version,
		Domain:  len(counts),
		Records: records,
		syns:    make([]*Synopsis, len(specs)),
	}
	errs := make([]error, len(specs))
	steps := make([]build.Step, len(specs))
	prevSyns := make([]*Synopsis, len(specs))
	tasks := []func(){
		func() { snap.count = prefix.NewTable(counts) },
		func() { snap.sum = prefix.NewTable(sums) },
	}
	for i := range specs {
		i, sp := i, specs[i]
		syn := &Synopsis{SynopsisSpec: sp}
		snap.syns[i] = syn
		var from *build.Prev
		if p := prev.find(sp.Name); p != nil && p.SynopsisSpec == sp {
			prevSyns[i] = p
			from = &build.Prev{Est: p.Est, Version: prev.Version}
			syn.ingest = p.ingest
			if syn.ingest == nil && s.cfg.Ingest.Enabled() && ingest.CanMaintain(p.Est) {
				syn.ingest = ingest.NewState(s.cfg.Ingest)
			}
		}
		series := counts
		if sp.Metric == engine.Sum {
			series = sums
		}
		tasks = append(tasks, func() {
			syn.Est, steps[i], errs[i] = build.Refresh(series, version, sp.Options, from, c.Window, syn.ingest, c.Cutover)
		})
	}
	parallel.Do(tasks...)
	for i, err := range errs {
		if err != nil {
			return fail(fmt.Errorf("serve: building synopsis %q: %w", specs[i].Name, err))
		}
	}
	// Error models, built concurrently against the snapshot's own prefix
	// tables. Reused synopses carry theirs over. A model failure just
	// leaves that synopsis serving unbounded.
	var mtasks []func()
	for i, syn := range snap.syns {
		if steps[i].Rung == build.Reuse {
			syn.ErrModel = prevSyns[i].ErrModel
			continue
		}
		tab := snap.count
		if syn.Metric == engine.Sum {
			tab = snap.sum
		}
		mtasks = append(mtasks, func() { syn.ErrModel, _ = method.ModelFor(syn.Options.Method, tab, syn.Est) })
	}
	if len(mtasks) > 0 {
		parallel.Do(mtasks...)
	}
	s.publish(snap)
	s.lastErr.Store(&rebuildError{})
	span.SetAttrInt("version", snap.Version)
	return nil
}

// publish swaps snap in as the served snapshot. Callers hold rebuildMu
// or own the server exclusively.
func (s *Server) publish(snap *Snapshot) {
	snap.epoch = s.rebuilds.Add(1)
	snap.buildViews()
	s.snap.Store(snap)
	s.swappedAt.Store(time.Now().UnixNano())
	snapshotSwaps.Inc()
	snapshotVersion.Set(snap.Version)
}

// debounceLoop turns mutation signals into background rebuilds: it waits
// for a quiet period after the last mutation before rebuilding, but never
// lets the snapshot lag more than MaxLag behind a mutation.
func (s *Server) debounceLoop() {
	defer close(s.done)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for {
		select {
		case <-s.stop:
			return
		case <-s.dirty:
		}
		deadline := time.Now().Add(s.cfg.MaxLag)
		timer.Reset(s.cfg.Debounce)
	quiet:
		for {
			select {
			case <-s.stop:
				timer.Stop()
				return
			case <-s.dirty:
				d := s.cfg.Debounce
				if rem := time.Until(deadline); rem < d {
					d = rem
				}
				if !timer.Stop() {
					select {
					case <-timer.C:
					default:
					}
				}
				timer.Reset(d)
			case <-timer.C:
				break quiet
			}
		}
		if err := s.Rebuild(); err == nil && s.cfg.WAL != nil {
			// Checkpoints piggyback on the debounced rebuild: the engine
			// is quiescing, so the captured state is the one just served.
			_, _ = s.cfg.WAL.MaybeCheckpoint()
		} // a failed rebuild keeps the old snapshot; LastError reports it
	}
}
