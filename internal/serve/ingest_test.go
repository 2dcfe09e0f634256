package serve

import (
	"math"
	"math/rand"
	"sync"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/histogram"
	"rangeagg/internal/ingest"
	"rangeagg/internal/prefix"
)

func incrementalCfg() Config {
	return Config{
		Debounce: time.Hour, // rebuilds only when the tests call Rebuild
		Ingest:   ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18},
	}
}

// ingestSince returns how far the process-wide ingest counters moved
// since before.
func ingestSince(before IngestStats) IngestStats {
	now := ingestStats()
	return IngestStats{
		Absorbed:        now.Absorbed - before.Absorbed,
		Reoptimized:     now.Reoptimized - before.Reoptimized,
		Repaired:        now.Repaired - before.Repaired,
		Escalated:       now.Escalated - before.Escalated,
		RebuildsAvoided: now.RebuildsAvoided - before.RebuildsAvoided,
	}
}

func newIngestServer(t *testing.T, domain int, cfg Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("test", domain)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, domain)
	for i := range counts {
		counts[i] = int64(i%11 + 1)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "flat", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 24}},
		{Name: "seg", Metric: engine.Count, Options: build.Options{Method: build.Segmented, BudgetWords: 48, Segments: 4}},
	}
	s, err := New(eng, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return eng, s
}

// TestServeIncrementalMaintains pins the serving-layer ladder: confined
// inserts are absorbed (not rebuilt), the maintenance counters advance,
// and every published answer stays inside its rigorous bound.
func TestServeIncrementalMaintains(t *testing.T) {
	before := ingestStats()
	_, s := newIngestServer(t, 256, incrementalCfg())
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	for batch := 0; batch < 8; batch++ {
		v := 10 + batch*7
		if err := s.Insert(v, 50); err != nil {
			t.Fatal(err)
		}
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap := s.Snapshot()
		for _, name := range []string{"flat", "seg"} {
			syn, err := snap.Synopsis(name)
			if err != nil {
				t.Fatal(err)
			}
			if syn.ErrModel == nil {
				t.Fatalf("batch %d %s: maintained publish lost its error model", batch, name)
			}
			exact := float64(snap.ExactCount(0, 255))
			resid := math.Abs(syn.Est.Estimate(0, 255) - exact)
			if bound := syn.ErrModel.Bound(0, 255); resid > bound+1e-6 {
				t.Fatalf("batch %d %s: residual %g exceeds bound %g", batch, name, resid, bound)
			}
		}
	}
	st := ingestSince(before)
	// Two maintained synopses, eight confined batches each.
	if st.Absorbed != 16 || st.RebuildsAvoided != 16 || st.Escalated != 0 {
		t.Fatalf("ingest stats = %+v, want 16 absorbed, 16 avoided", st)
	}
}

// TestServeMaintainedPublishFreshCache pins answer freshness across
// maintained publishes: a probe answer must not survive a publish that
// absorbed new data.
func TestServeMaintainedPublishFreshCache(t *testing.T) {
	before := ingestStats()
	_, s := newIngestServer(t, 256, incrementalCfg())
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	res, _ := s.QueryOne(Query{Synopsis: "flat", A: 20, B: 120})
	if res.Err != nil {
		t.Fatal(res.Err)
	}

	// Mass lands inside the queried range; the publish is a maintained
	// absorb, not a rebuild.
	if err := s.Insert(60, 10_000); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st := ingestSince(before); st.Absorbed == 0 {
		t.Fatalf("publish did not maintain: %+v", st)
	}
	after, _ := s.QueryOne(Query{Synopsis: "flat", A: 20, B: 120})
	if after.Err != nil {
		t.Fatal(after.Err)
	}
	// The bucket holding value 60 may stretch past the query range, so
	// only part of the absorbed mass lands in the estimate — but the jump
	// must still dwarf the pre-insert answer.
	if math.Abs(after.Value-res.Value) < 1_000 {
		t.Fatalf("maintained publish not visible: %g vs %g before 10k inserts in range", after.Value, res.Value)
	}
	// And the exact path agrees with the engine post-publish.
	zero := 0.0
	exact, _ := s.QueryOne(Query{Synopsis: "flat", A: 20, B: 120, MaxErr: &zero})
	if exact.Value != float64(s.Snapshot().ExactCount(20, 120)) {
		t.Fatalf("exact path stale: %g", exact.Value)
	}
}

// TestServeLoadPartialWindow pins the satellite fix at the serving
// layer: a bulk /load whose mass is confined to a narrow window keeps
// the rebuild partial, so untouched segments are reused instead of
// re-run through the DP.
func TestServeLoadPartialWindow(t *testing.T) {
	// Rebuild-mode config: the segmented spec exercises the dirty-segment
	// path, which reports reuse through SegmentStats.
	eng, s := newIngestServer(t, 512, Config{Debounce: time.Hour})
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	before := segmentStats()

	batch := make([]int64, 512)
	for v := 40; v <= 70; v++ {
		batch[v] = 25
	}
	if err := s.Load(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	after := segmentStats()
	if after.Reused <= before.Reused {
		t.Fatalf("confined bulk load reused no segments: before %+v after %+v", before, after)
	}
	if got, want := s.Snapshot().ExactCount(40, 70), eng.ExactCount(40, 70); got != want {
		t.Fatalf("post-load snapshot stale: %d vs %d", got, want)
	}

	// A load spanning the whole domain still goes full.
	wide := make([]int64, 512)
	wide[0], wide[511] = 1, 1
	if err := s.Load(wide); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
}

// TestServeEscalationRebuilds drives drift through the serving layer:
// when maintenance escalates, Rebuild falls back to the rebuild paths,
// counts the escalation, and keeps publishing covered answers.
func TestServeEscalationRebuilds(t *testing.T) {
	cfg := Config{
		Debounce: time.Hour,
		Ingest:   ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.1},
	}
	before := ingestStats()
	_, s := newIngestServer(t, 256, cfg)
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	mag := int64(1 << 8)
	for batch := 0; batch < 30; batch++ {
		if err := s.Insert((batch*53)%256, mag); err != nil {
			t.Fatal(err)
		}
		mag *= 2
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap := s.Snapshot()
		syn, err := snap.Synopsis("seg")
		if err != nil {
			t.Fatal(err)
		}
		exact := float64(snap.ExactCount(0, 255))
		resid := math.Abs(syn.Est.Estimate(0, 255) - exact)
		if bound := syn.ErrModel.Bound(0, 255); resid > bound+1e-6 {
			t.Fatalf("batch %d: residual %g exceeds bound %g", batch, resid, bound)
		}
	}
	st := ingestSince(before)
	if st.Escalated == 0 {
		t.Fatalf("drift ladder never escalated under exploding inserts: %+v", st)
	}
	if st.Repaired == 0 {
		t.Fatalf("ladder escalated without ever repairing: %+v", st)
	}
	if st.Absorbed+st.Reoptimized+st.Repaired != st.RebuildsAvoided {
		t.Fatalf("avoided-rebuild accounting off: %+v", st)
	}
}

// TestServeRebuildModeUnchanged pins that the default mode keeps the
// pre-ingest behaviour: no maintenance state, no counters.
func TestServeRebuildModeUnchanged(t *testing.T) {
	before := ingestStats()
	_, s := newIngestServer(t, 128, Config{Debounce: time.Hour})
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := s.Insert(5, 10); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if st := ingestSince(before); st != (IngestStats{}) {
		t.Fatalf("rebuild mode accrued ingest stats: %+v", st)
	}
}

// maintainedServer serves one spec over counts in incremental mode and
// publishes once more, so the spec carries maintenance state into the
// writes that follow.
func maintainedServer(t *testing.T, counts []int64, spec engine.SynopsisSpec, icfg ingest.Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("test", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	icfg.Mode = ingest.ModeIncremental
	s, err := New(eng, []engine.SynopsisSpec{spec}, Config{Debounce: time.Hour, Ingest: icfg})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	return eng, s
}

// publishedAvg returns the flat histogram the snapshot publishes as m.
func publishedAvg(t *testing.T, s *Server) (*Synopsis, *histogram.Avg) {
	t.Helper()
	syn, err := s.Snapshot().Synopsis("m")
	if err != nil {
		t.Fatal(err)
	}
	h, ok := syn.Est.(*histogram.Avg)
	if !ok {
		t.Fatalf("m is a %T, want a flat histogram", syn.Est)
	}
	return syn, h
}

// wantAbsorbed checks that h kept the boundaries and that its values are
// bit-identical to a from-scratch build over them on counts.
func wantAbsorbed(t *testing.T, h *histogram.Avg, boundaries *histogram.Bucketing, counts []int64) {
	t.Helper()
	if !h.Buckets.Equal(boundaries) {
		t.Fatal("boundaries moved without repair or escalation")
	}
	want, err := histogram.NewAvgFromBounds(prefix.NewTable(counts), boundaries, histogram.RoundNone, "want")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if h.Values[i] != want.Values[i] {
			t.Fatalf("bucket %d: maintained %v, from-scratch %v (bit-exact required)", i, h.Values[i], want.Values[i])
		}
	}
}

// TestIngestOracleDifferential pins the serving layer's maintenance
// against an oracle: after any interleaving of inserts and deletes, the
// published synopsis equals a from-scratch build over the same
// boundaries bit-exactly (the absorb rung, forced by disabling reopt
// and setting an untrippable drift threshold), and its refreshed error
// model covers the true residual on every sampled range.
func TestIngestOracleDifferential(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(11))
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = int64(rng.Intn(40))
	}
	spec := engine.SynopsisSpec{Name: "m", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 24}}
	eng, s := maintainedServer(t, initial, spec, ingest.Config{ReoptEvery: -1, DriftThreshold: 1e18})
	_, h := publishedAvg(t, s)
	boundaries := h.Buckets

	for batch := 0; batch < 25; batch++ {
		for j := 0; j < 1+rng.Intn(6); j++ {
			v := rng.Intn(n)
			if rng.Intn(3) == 0 {
				if cur := eng.Counts()[v]; cur > 0 {
					if err := s.Delete(v, 1+rng.Int63n(cur)); err != nil {
						t.Fatalf("delete: %v", err)
					}
				}
			} else if err := s.Insert(v, 1+rng.Int63n(9)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		syn, h := publishedAvg(t, s)
		wantAbsorbed(t, h, boundaries, eng.Counts())
		if syn.ErrModel == nil || !syn.ErrModel.Rigorous() {
			t.Fatalf("batch %d: maintained synopsis lost its rigorous error model", batch)
		}
		snap := s.Snapshot()
		for a := 0; a < n; a += 7 {
			for b := a; b < n; b += 13 {
				resid := math.Abs(syn.Est.Estimate(a, b) - float64(snap.ExactCount(a, b)))
				if bound := syn.ErrModel.Bound(a, b); resid > bound+1e-6 {
					t.Fatalf("batch %d: residual %g exceeds bound %g on [%d,%d]", batch, resid, bound, a, b)
				}
			}
		}
	}
}

// TestIngestSegmentedEscalation drives a maintained SEGMENTED synopsis
// into repair and then escalation: every publish must hand an
// escalation to the dirty-segment rebuild and come back current and
// covered by its error model.
func TestIngestSegmentedEscalation(t *testing.T) {
	const n = 512
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = 10
	}
	spec := engine.SynopsisSpec{Name: "seg", Metric: engine.Count, Options: build.Options{Method: build.Segmented, BudgetWords: 64, Segments: 4}}
	before := ingestStats()
	eng, s := maintainedServer(t, initial, spec, ingest.Config{ReoptEvery: -1, DriftThreshold: 1.2})
	// Doubling from 4 keeps the SUM total below engine.MaxTotal through
	// the last batch.
	mag := int64(1 << 2)
	for batch := 0; batch < 40; batch++ {
		v := (batch * 37) % n
		if err := s.Insert(v, mag); err != nil {
			t.Fatal(err)
		}
		mag *= 2
		if err := s.Rebuild(); err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		snap := s.Snapshot()
		if snap.Version != eng.Version() {
			t.Fatalf("batch %d: published snapshot is stale (version %d vs %d)", batch, snap.Version, eng.Version())
		}
		syn, err := snap.Synopsis("seg")
		if err != nil {
			t.Fatal(err)
		}
		a, b := v/2, min(v/2+n/4, n-1)
		resid := math.Abs(syn.Est.Estimate(a, b) - float64(snap.ExactCount(a, b)))
		if bound := syn.ErrModel.Bound(a, b); resid > bound+1e-6 {
			t.Fatalf("batch %d: residual %g exceeds bound %g", batch, resid, bound)
		}
	}
	if st := ingestSince(before); st.Repaired == 0 || st.Escalated == 0 {
		t.Fatalf("ladder never repaired and escalated: %+v", st)
	}
}

// TestLoadMarksPreciseWindow pins that a bulk load confined to a narrow
// window leaves the mutation window partial, so a maintained synopsis
// absorbs it on its boundaries, and that an all-zero load marks nothing,
// so the next publish reuses the estimator.
func TestLoadMarksPreciseWindow(t *testing.T) {
	const n = 256
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = int64(i%9 + 1)
	}
	spec := engine.SynopsisSpec{Name: "m", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 20}}
	eng, s := maintainedServer(t, initial, spec, ingest.Config{ReoptEvery: -1, DriftThreshold: 1e18})
	_, h := publishedAvg(t, s)
	boundaries := h.Buckets

	batch := make([]int64, n)
	for v := 30; v <= 45; v++ {
		batch[v] = 100
	}
	if err := s.Load(batch); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	_, h = publishedAvg(t, s)
	wantAbsorbed(t, h, boundaries, eng.Counts())

	if err := s.Load(make([]int64, n)); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if _, again := publishedAvg(t, s); again != h {
		t.Fatal("an all-zero load invalidated the synopsis")
	}
}

// TestPinnedQueriesFeedDriftTrigger pins that queries naming a
// maintained synopsis reach its drift trigger through the snapshot they
// pinned. A spike lands in one wide bucket of a histogram that was
// exact on uniform data. When the pinned queries split that bucket, the
// publish after the spike sees their error grow and repairs the
// boundaries; when they only cover a disjoint bucket, their error stays
// zero and the publish only absorbs.
func TestPinnedQueriesFeedDriftTrigger(t *testing.T) {
	const n, spike = 256, 100
	uniform := make([]int64, n)
	for i := range uniform {
		uniform[i] = 10
	}
	spec := engine.SynopsisSpec{Name: "m", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 16}}
	for _, tc := range []struct {
		name   string
		around int // the queries split the bucket holding this value
		repair bool
	}{
		{"split spike bucket", spike, true},
		{"disjoint bucket", 0, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			_, s := maintainedServer(t, uniform, spec, ingest.Config{ReoptEvery: -1, DriftThreshold: 1.05})
			_, h := publishedAvg(t, s)
			lo, hi := h.Buckets.Bounds(h.Buckets.Find(tc.around))
			if hi-lo < 4 || h.Buckets.Find(spike) == h.Buckets.Find(n-1) || h.Buckets.Find(0) == h.Buckets.Find(spike) {
				t.Fatalf("bucketing %v does not separate the test's values", h.Buckets)
			}
			// The trigger samples one query in eight, so each range is
			// asked eight times to land once in its ring.
			for _, r := range [][2]int{{lo, lo + 2}, {lo + 1, hi - 1}, {lo + 3, hi}} {
				for k := 0; k < 8; k++ {
					if res, _ := s.QueryOne(Query{Synopsis: "m", A: r[0], B: r[1]}); res.Err != nil {
						t.Fatal(res.Err)
					}
				}
			}
			// A write in the last bucket sets the drift baseline: zero,
			// since every queried bucket is still exact.
			if err := s.Insert(n-1, 5); err != nil {
				t.Fatal(err)
			}
			if err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
			before := ingestStats()
			if err := s.Insert(spike, 10_000); err != nil {
				t.Fatal(err)
			}
			if err := s.Rebuild(); err != nil {
				t.Fatal(err)
			}
			want := IngestStats{Absorbed: 1, RebuildsAvoided: 1}
			if tc.repair {
				want = IngestStats{Repaired: 1, RebuildsAvoided: 1}
			}
			if got := ingestSince(before); got != want {
				t.Fatalf("the publish after the spike did %+v, want %+v", got, want)
			}
		})
	}
}

// TestSpecChangesUnderPinnedQueries races pinned queries, which feed the
// drift trigger of the synopsis they pinned, against maintained
// publishes and spec changes: every answer from a registered synopsis
// succeeds, and the race detector sees the ingest state travel only
// through published snapshots.
func TestSpecChangesUnderPinnedQueries(t *testing.T) {
	_, s := newIngestServer(t, 256, incrementalCfg())
	w := engine.SynopsisSpec{Name: "w", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 8}}
	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.Insert(i%256, 3); err != nil {
				t.Error(err)
				return
			}
			if err := s.Rebuild(); err != nil {
				t.Error(err)
				return
			}
			if err := s.AddSynopsis(w); err != nil {
				t.Error(err)
				return
			}
			if !s.DropSynopsis("w") {
				t.Error("DropSynopsis(w) = false after AddSynopsis")
				return
			}
		}
	}()
	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			qs := []Query{{Synopsis: "flat", A: 3, B: 90}, {Synopsis: "seg", A: 40, B: 200}, {Synopsis: "w", A: 0, B: 9}}
			for i := 0; i < 200; i++ {
				results, _ := s.QueryBatch(qs)
				for j, res := range results[:2] {
					if res.Err != nil {
						t.Errorf("query %d: %v", j, res.Err)
						return
					}
				}
			}
		}()
	}
	readers.Wait()
	close(stop)
	writer.Wait()
}
