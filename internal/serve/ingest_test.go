package serve

import (
	"math"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/ingest"
	"rangeagg/internal/plan"
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

// TestServeMaintainedPublishFreshCache pins planner-cache freshness
// across maintained publishes: a cached probe answer must not survive a
// publish that absorbed new data — the epoch bump invalidates it.
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
	again, _ := s.QueryOne(Query{Synopsis: "flat", A: 20, B: 120})
	if again.Path != plan.PathCache {
		t.Fatalf("repeat before publish: path %v, want cache hit", again.Path)
	}

	// Mass lands inside the queried range; the publish is a maintained
	// absorb, not a rebuild — the cache must still be invalidated.
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
	if after.Path == plan.PathCache {
		t.Fatal("stale cache hit served across a maintained publish")
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
