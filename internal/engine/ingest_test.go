package engine

import (
	"math"
	"math/rand"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/histogram"
	"rangeagg/internal/ingest"
	"rangeagg/internal/prefix"
	"rangeagg/internal/sse"
)

// TestIngestOracleDifferential is the tentpole's correctness pin at the
// engine layer: after any interleaving of inserts and deletes, the
// incrementally maintained synopsis either equals a from-scratch build
// over the same boundaries bit-exactly (absorb path — forced here by
// disabling reopt and setting an untrippable drift threshold), or its
// refreshed error model still covers the true residual on every range.
func TestIngestOracleDifferential(t *testing.T) {
	const n = 128
	rng := rand.New(rand.NewSource(11))
	e, err := New("col", n)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = int64(rng.Intn(40))
	}
	if err := e.Load(initial); err != nil {
		t.Fatal(err)
	}
	opt := build.Options{Method: build.A0, BudgetWords: 24}
	syn, err := e.BuildSynopsis("m", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("m", ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18}); err != nil {
		t.Fatal(err)
	}
	boundaries := syn.Est.(*histogram.Avg).Buckets

	for batch := 0; batch < 25; batch++ {
		for j := 0; j < 1+rng.Intn(6); j++ {
			v := rng.Intn(n)
			if rng.Intn(3) == 0 {
				cur := e.Counts()[v]
				if cur > 0 {
					d := 1 + rng.Int63n(cur)
					if err := e.Delete(v, d); err != nil {
						t.Fatalf("delete: %v", err)
					}
				}
			} else if err := e.Insert(v, 1+rng.Int63n(9)); err != nil {
				t.Fatalf("insert: %v", err)
			}
		}
		syn, err = e.BuildSynopsis("m", Count, opt)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		counts := e.Counts()

		// Absorb-path bit-exactness: same boundaries, from-scratch values.
		got := syn.Est.(*histogram.Avg)
		if !got.Buckets.Equal(boundaries) {
			t.Fatalf("batch %d: boundaries moved without repair/escalate", batch)
		}
		want, err := histogram.NewAvgFromBounds(prefix.NewTable(counts), boundaries, histogram.RoundNone, "want")
		if err != nil {
			t.Fatal(err)
		}
		for i := range want.Values {
			if got.Values[i] != want.Values[i] {
				t.Fatalf("batch %d bucket %d: maintained %v, from-scratch %v (bit-exact required)",
					batch, i, got.Values[i], want.Values[i])
			}
		}

		// The error model is rebuilt against the maintained estimator, so
		// its rigorous bound must cover the oracle residual on every range.
		if syn.ErrModel == nil || !syn.ErrModel.Rigorous() {
			t.Fatalf("batch %d: maintained synopsis lost its rigorous error model", batch)
		}
		for a := 0; a < n; a += 7 {
			for b := a; b < n; b += 13 {
				resid := math.Abs(syn.Est.Estimate(a, b) - float64(e.ExactCount(a, b)))
				if bound := syn.ErrModel.Bound(a, b); resid > bound+1e-6 {
					t.Fatalf("batch %d: residual %g exceeds bound %g on [%d,%d]", batch, resid, bound, a, b)
				}
			}
		}
	}
}

// TestIngestSegmentedEscalation drives a maintained SEGMENTED synopsis
// into repair and then escalation; BuildSynopsis must hand the
// escalation to the dirty-segment rebuild and come back with a current,
// covered synopsis — and maintenance must resume afterwards.
func TestIngestSegmentedEscalation(t *testing.T) {
	const n = 512
	e, err := New("col", n)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = 10
	}
	if err := e.Load(initial); err != nil {
		t.Fatal(err)
	}
	opt := build.Options{Method: build.Segmented, BudgetWords: 64, Segments: 4}
	if _, err = e.BuildSynopsis("seg", Count, opt); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("seg", ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.2}); err != nil {
		t.Fatal(err)
	}
	// Doubling from 4 keeps the SUM total below MaxTotal through the last
	// batch and runs the same absorb → repair → escalate cycle as larger
	// magnitudes would.
	mag := int64(1 << 2)
	for batch := 0; batch < 40; batch++ {
		v := (batch * 37) % n
		if err := e.Insert(v, mag); err != nil {
			t.Fatal(err)
		}
		mag *= 2
		syn, err := e.BuildSynopsis("seg", Count, opt)
		if err != nil {
			t.Fatalf("batch %d: %v", batch, err)
		}
		if syn.Version != e.Version() {
			t.Fatalf("batch %d: published synopsis is stale (version %d vs %d)", batch, syn.Version, e.Version())
		}
		// Whatever rung ran, the answer stays bounded by the fresh model.
		a, b := v/2, v/2+n/4
		if b > n-1 {
			b = n - 1
		}
		resid := math.Abs(syn.Est.Estimate(a, b) - float64(e.ExactCount(a, b)))
		if bound := syn.ErrModel.Bound(a, b); resid > bound+1e-6 {
			t.Fatalf("batch %d: residual %g exceeds bound %g", batch, resid, bound)
		}
	}
}

func TestEnableIngestValidation(t *testing.T) {
	e, err := New("col", 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	if err := e.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("missing", ingest.Config{Mode: ingest.ModeIncremental}); err == nil {
		t.Fatal("enabled ingest for unknown synopsis")
	}
	// A wavelet synopsis is not a maintainable representation.
	if _, err := e.BuildSynopsis("w", Count, build.Options{Method: build.WaveTopBB, BudgetWords: 16}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("w", ingest.Config{Mode: ingest.ModeIncremental}); err == nil {
		t.Fatal("enabled ingest for non-maintainable estimator")
	}
	if _, err := e.BuildSynopsis("h", Count, build.Options{Method: build.A0, BudgetWords: 12}); err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("h", ingest.Config{Mode: ingest.ModeIncremental}); err != nil {
		t.Fatal(err)
	}
	if !e.DisableIngest("h") || e.DisableIngest("h") {
		t.Fatal("DisableIngest did not report the transition")
	}
	// Queries on a maintained synopsis feed the drift trigger; on a
	// non-maintained one they are a no-op — both must answer fine.
	if err := e.EnableIngest("h", ingest.Config{Mode: ingest.ModeIncremental}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Approx("h", 3, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApproxWithError("h", 3, 40); err != nil {
		t.Fatal(err)
	}
	if _, err := e.ApproxBatch("h", []sse.Range{{A: 0, B: 10}, {A: 5, B: 60}}); err != nil {
		t.Fatal(err)
	}
	if !e.DropSynopsis("h") {
		t.Fatal("drop failed")
	}
	if err := e.EnableIngest("h", ingest.Config{Mode: ingest.ModeIncremental}); err == nil {
		t.Fatal("enabled ingest for dropped synopsis")
	}
}

// TestLoadMarksPreciseWindow pins the satellite fix: a bulk Load whose
// non-zero mass is confined to a narrow window must leave the dirty
// window partial, so a maintained (or dirty-segment) synopsis absorbs
// instead of rebuilding from scratch.
func TestLoadMarksPreciseWindow(t *testing.T) {
	const n = 256
	e, err := New("col", n)
	if err != nil {
		t.Fatal(err)
	}
	initial := make([]int64, n)
	for i := range initial {
		initial[i] = int64(i%9 + 1)
	}
	if err := e.Load(initial); err != nil {
		t.Fatal(err)
	}
	opt := build.Options{Method: build.A0, BudgetWords: 20}
	syn, err := e.BuildSynopsis("m", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.EnableIngest("m", ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18}); err != nil {
		t.Fatal(err)
	}
	boundaries := syn.Est.(*histogram.Avg).Buckets

	// Additional mass confined to [30,45]: under the old markDirtyAll
	// behaviour this forced a full build (new boundaries, different
	// label); with the precise window the ladder absorbs on the same
	// boundaries.
	batch := make([]int64, n)
	for v := 30; v <= 45; v++ {
		batch[v] = 100
	}
	if err := e.Load(batch); err != nil {
		t.Fatal(err)
	}
	syn, err = e.BuildSynopsis("m", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	got, ok := syn.Est.(*histogram.Avg)
	if !ok || !got.Buckets.Equal(boundaries) {
		t.Fatal("partial bulk load was not absorbed in place")
	}
	want, err := histogram.NewAvgFromBounds(prefix.NewTable(e.Counts()), boundaries, histogram.RoundNone, "want")
	if err != nil {
		t.Fatal(err)
	}
	for i := range want.Values {
		if got.Values[i] != want.Values[i] {
			t.Fatalf("bucket %d: %v != %v after bulk-load absorb", i, got.Values[i], want.Values[i])
		}
	}

	// An all-zero load mutates nothing and must not dirty the window.
	if err := e.Load(make([]int64, n)); err != nil {
		t.Fatal(err)
	}
	again, err := e.BuildSynopsis("m", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != syn {
		t.Fatal("no-op load invalidated the synopsis")
	}
}
