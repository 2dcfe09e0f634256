package serve

import (
	"math/rand"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
)

// TestLadderEngineServeDifferential pins that the engine and the serving
// layer refresh synopses through one ladder: fed the same seeded counts
// and the same insert/delete/load sequence, engine.BuildSynopsis and
// Server.Rebuild publish estimators that answer every range of the
// domain bit-identically after every batch. Only the serving layer
// maintains incrementally, so the layers are compared in rebuild mode.
func TestLadderEngineServeDifferential(t *testing.T) {
	const n = 256
	specs := []engine.SynopsisSpec{
		{Name: "flat", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 24}},
		{Name: "seg", Metric: engine.Count, Options: build.Options{Method: build.Segmented, BudgetWords: 48, Segments: 4}},
	}
	t.Run("rebuild", func(t *testing.T) {
		rng := rand.New(rand.NewSource(13))
		eng, err := engine.New("diff", n)
		if err != nil {
			t.Fatal(err)
		}
		counts := make([]int64, n)
		for i := range counts {
			counts[i] = int64(rng.Intn(40))
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			if _, err := eng.BuildSynopsis(sp.Name, sp.Metric, sp.Options); err != nil {
				t.Fatal(err)
			}
		}
		s, err := New(eng, specs, Config{Debounce: time.Hour})
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		before := ingestStats()

		compare := func(batch int) {
			t.Helper()
			snap := s.Snapshot()
			for _, sp := range specs {
				es, err := eng.Synopsis(sp.Name)
				if err != nil {
					t.Fatal(err)
				}
				ss, err := snap.Synopsis(sp.Name)
				if err != nil {
					t.Fatal(err)
				}
				for a := 0; a < n; a++ {
					for b := a; b < n; b++ {
						if x, y := es.Est.Estimate(a, b), ss.Est.Estimate(a, b); x != y {
							t.Fatalf("batch %d %s [%d,%d]: engine %v, serve %v", batch, sp.Name, a, b, x, y)
						}
					}
				}
			}
		}
		compare(-1)
		for batch := 0; batch < 16; batch++ {
			var err error
			switch {
			case batch == 5: // an all-zero load mutates nothing: both reuse
				err = s.Load(make([]int64, n))
			case batch == 10: // a whole-domain load: both build in full
				wide := make([]int64, n)
				wide[0], wide[n-1] = 1, 1
				err = s.Load(wide)
			case batch%4 == 3: // a load confined to a narrow window
				bulk := make([]int64, n)
				lo := rng.Intn(n - 16)
				for v := lo; v < lo+16; v++ {
					bulk[v] = 1 + rng.Int63n(5)
				}
				err = s.Load(bulk)
			default: // growing point writes, so drift trips in incremental mode
				for j := 0; j < 1+rng.Intn(4) && err == nil; j++ {
					v := rng.Intn(n)
					if c := eng.Counts()[v]; rng.Intn(3) == 0 && c > 0 {
						err = s.Delete(v, 1+rng.Int63n(c))
					} else {
						err = s.Insert(v, (1+rng.Int63n(20))<<batch)
					}
				}
			}
			if err != nil {
				t.Fatalf("batch %d: %v", batch, err)
			}
			for _, sp := range specs {
				if _, err := eng.BuildSynopsis(sp.Name, sp.Metric, sp.Options); err != nil {
					t.Fatalf("batch %d: engine: %v", batch, err)
				}
			}
			if err := s.Rebuild(); err != nil {
				t.Fatalf("batch %d: serve: %v", batch, err)
			}
			compare(batch)
		}
		if d := ingestSince(before); d.RebuildsAvoided > 0 {
			t.Fatalf("rebuild mode: ingest counters moved by %+v", d)
		}
	})
}
