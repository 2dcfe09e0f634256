package serve

import (
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/obs"
	"rangeagg/internal/wal"
)

func testSpecs() []engine.SynopsisSpec {
	return []engine.SynopsisSpec{
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 16}},
		{Name: "s", Metric: engine.Sum, Options: build.Options{Method: build.SAP0, BudgetWords: 24}},
	}
}

func newTestServer(t *testing.T, domain int, cfg Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("test", domain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(eng, testSpecs(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return eng, s
}

func TestSnapshotExactAndApprox(t *testing.T) {
	eng, s := newTestServer(t, 64, Config{})
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 5)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	snap := s.Snapshot()
	if got, want := snap.ExactCount(0, 63), eng.ExactCount(0, 63); got != want {
		t.Fatalf("ExactCount = %d, want %d", got, want)
	}
	if got, want := snap.ExactSum(3, 40), eng.ExactSum(3, 40); got != want {
		t.Fatalf("ExactSum = %d, want %d", got, want)
	}
	// Clamping matches the engine: outside ranges count zero.
	if got := snap.ExactCount(80, 90); got != 0 {
		t.Fatalf("outside range = %d, want 0", got)
	}
	if _, err := snap.Approx("h", 0, 63); err != nil {
		t.Fatal(err)
	}
	if _, err := snap.Approx("nope", 0, 1); err == nil {
		t.Fatal("unknown synopsis accepted")
	}
	if got := snap.Names(); len(got) != 2 || got[0] != "h" || got[1] != "s" {
		t.Fatalf("Names = %v", got)
	}
}

func TestQueryBatchMatchesSingleQueries(t *testing.T) {
	eng, s := newTestServer(t, 128, Config{})
	counts := make([]int64, 128)
	for i := range counts {
		counts[i] = int64((i * 7) % 11)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	var qs []Query
	for a := 0; a < 128; a += 3 {
		qs = append(qs,
			Query{A: a, B: a + 17, Metric: engine.Count},
			Query{A: a, B: a + 17, Metric: engine.Sum},
			Query{Synopsis: "h", A: a, B: a + 17},
		)
	}
	results, version := s.QueryBatch(qs)
	if version != s.Snapshot().Version {
		t.Fatalf("batch version %d, snapshot version %d", version, s.Snapshot().Version)
	}
	for i, q := range qs {
		want, err := s.Query(q)
		if err != nil || results[i].Err != nil {
			t.Fatalf("query %d: errors %v / %v", i, err, results[i].Err)
		}
		if results[i].Value != want {
			t.Fatalf("query %d: batch %g, single %g", i, results[i].Value, want)
		}
	}
	// Unknown synopsis fails per-query, not the batch.
	results, _ = s.QueryBatch([]Query{{Synopsis: "nope", A: 0, B: 1}, {A: 0, B: 1}})
	if results[0].Err == nil || results[1].Err != nil {
		t.Fatalf("per-query errors wrong: %v / %v", results[0].Err, results[1].Err)
	}
}

func TestDebouncedRebuildConverges(t *testing.T) {
	eng, s := newTestServer(t, 32, Config{Debounce: 5 * time.Millisecond, MaxLag: 50 * time.Millisecond})
	before := s.Snapshot().Version
	if err := s.Insert(7, 100); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for s.Snapshot().Version == before {
		if time.Now().After(deadline) {
			t.Fatalf("snapshot never caught up past version %d", before)
		}
		time.Sleep(time.Millisecond)
	}
	if got, want := s.Snapshot().ExactCount(7, 7), eng.ExactCount(7, 7); got != want {
		t.Fatalf("after rebuild ExactCount = %d, want %d", got, want)
	}
}

func TestMaxLagBoundsStalenessUnderSustainedWrites(t *testing.T) {
	_, s := newTestServer(t, 32, Config{Debounce: 20 * time.Millisecond, MaxLag: 60 * time.Millisecond})
	before := s.Rebuilds()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
				_ = s.Insert(1, 1) // keeps resetting the quiet period
				time.Sleep(2 * time.Millisecond)
			}
		}
	}()
	time.Sleep(400 * time.Millisecond)
	close(stop)
	wg.Wait()
	if s.Rebuilds() == before {
		t.Fatal("sustained writes starved the rebuild past MaxLag")
	}
}

func TestAddDropSynopsis(t *testing.T) {
	eng, s := newTestServer(t, 32, Config{})
	if err := eng.Load(make([]int64, 32)); err != nil {
		t.Fatal(err)
	}
	err := s.AddSynopsis(engine.SynopsisSpec{
		Name: "w", Metric: engine.Count,
		Options: build.Options{Method: build.WaveTopBB, BudgetWords: 8},
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Snapshot().Approx("w", 0, 5); err != nil {
		t.Fatal(err)
	}
	if err := s.AddSynopsis(testSpecs()[0]); err == nil {
		t.Fatal("duplicate name accepted")
	}
	if !s.DropSynopsis("w") {
		t.Fatal("drop of existing synopsis reported false")
	}
	if _, err := s.Snapshot().Approx("w", 0, 5); err == nil {
		t.Fatal("dropped synopsis still served")
	}
	if s.DropSynopsis("w") {
		t.Fatal("double drop reported true")
	}
}

// TestCheckpointDeclaresServedSpecs checks that a durable server's
// checkpoints declare the specs it serves after AddSynopsis and
// DropSynopsis, so a replica adopts the added one and recovery does not
// rebuild the dropped one.
func TestCheckpointDeclaresServedSpecs(t *testing.T) {
	db, _, err := wal.Open(t.TempDir(), wal.Options{Domain: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	s, err := New(db.Engine(), testSpecs(), Config{WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	w := engine.SynopsisSpec{Name: "w", Metric: engine.Count, Options: build.Options{Method: build.WaveTopBB, BudgetWords: 8}}
	if err := s.AddSynopsis(w); err != nil {
		t.Fatal(err)
	}
	if !s.DropSynopsis("h") {
		t.Fatal("DropSynopsis(h) = false")
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rc, _, _, err := db.OpenNewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	defer rc.Close()
	ck, err := wal.DecodeCheckpoint(rc)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, sp := range ck.Specs {
		names = append(names, sp.Name)
	}
	sort.Strings(names)
	if !reflect.DeepEqual(names, []string{"s", "w"}) {
		t.Fatalf("checkpoint declares %v, server serves %v", names, s.Snapshot().Names())
	}
}

func TestRebuildFailureKeepsOldSnapshot(t *testing.T) {
	_, s := newTestServer(t, 32, Config{})
	good := s.Snapshot()
	// A bad spec (zero budget on a budgeted method) must fail the rebuild
	// without unpublishing the good snapshot, and must be rolled back.
	err := s.AddSynopsis(engine.SynopsisSpec{
		Name: "bad", Metric: engine.Count,
		Options: build.Options{Method: build.VOptimal},
	})
	if err == nil {
		t.Fatal("zero-budget spec accepted")
	}
	if s.Snapshot() != good {
		t.Fatal("failed rebuild replaced the snapshot")
	}
	if err := s.Rebuild(); err != nil {
		t.Fatalf("rebuild after rollback: %v", err)
	}
	if s.LastError() != nil {
		t.Fatalf("LastError not cleared: %v", s.LastError())
	}
}

func TestNewRejectsBadSpec(t *testing.T) {
	eng, err := engine.New("test", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(eng, []engine.SynopsisSpec{{Name: "bad", Options: build.Options{Method: build.VOptimal}}}, Config{}); err == nil {
		t.Fatal("invalid initial spec accepted")
	}
}

// TestNewRejectsDuplicateName pins that two specs under one name are
// refused at startup: the served synopsis and the one the checkpoint
// declares could otherwise differ.
func TestNewRejectsDuplicateName(t *testing.T) {
	eng, err := engine.New("test", 16)
	if err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{
		{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.EquiWidth, BudgetWords: 8}},
		{Name: "h", Metric: engine.Sum, Options: build.Options{Method: build.SAP0, BudgetWords: 8}},
	}
	if s, err := New(eng, specs, Config{}); err == nil {
		s.Close()
		t.Fatal("two specs named h accepted")
	}
}

// builds counts the synopsis builds this process has run
// (rangeagg_build_seconds observations).
func builds() int64 {
	var n int64
	obs.Default.EachHistogram("rangeagg_build_seconds", func(_ string, _ []obs.Label, h obs.HistSnapshot) {
		n += h.Count
	})
	return n
}

// TestRestartBuildsEachSpecOnce pins the one registry of a durable node:
// a restart runs no build in wal.Open and exactly one per spec in
// New, and the engine holds no copy of a served synopsis. That holds
// too when the data directory starts from a checkpoint that carries the
// served names as engine synopses with blobs, as older releases wrote
// it. A dropped spec then leaves the next checkpoint.
func TestRestartBuildsEachSpecOnce(t *testing.T) {
	specs := testSpecs()
	for _, legacy := range []bool{false, true} {
		name := "declared"
		if legacy {
			name = "engine copies"
		}
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			db, _, err := wal.Open(dir, wal.Options{Domain: 64})
			if err != nil {
				t.Fatal(err)
			}
			if err := db.Insert(7, 3); err != nil {
				t.Fatal(err)
			}
			if legacy {
				for _, sp := range specs {
					if _, err := db.BuildSynopsis(sp.Name, sp.Metric, sp.Options); err != nil {
						t.Fatal(err)
					}
				}
			} else {
				s, err := New(db.Engine(), specs, Config{WAL: db, Debounce: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				s.Close()
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			if err := db.Close(); err != nil {
				t.Fatal(err)
			}

			open := func(k int) (*wal.DB, *Server) {
				t.Helper()
				before := builds()
				db, _, err := wal.Open(dir, wal.Options{})
				if err != nil {
					t.Fatal(err)
				}
				if n := builds() - before; n != 0 {
					t.Fatalf("reopen %d: wal.Open ran %d builds, want 0", k, n)
				}
				before = builds()
				s, err := New(db.Engine(), specs, Config{WAL: db, Debounce: time.Hour})
				if err != nil {
					t.Fatal(err)
				}
				if n := builds() - before; n != int64(len(specs)) {
					t.Fatalf("reopen %d: New ran %d builds, want %d", k, n, len(specs))
				}
				if syns := db.Engine().Synopses(); len(syns) != 0 {
					t.Fatalf("reopen %d: the engine still holds %d synopses", k, len(syns))
				}
				return db, s
			}
			for k := 1; k <= 2; k++ {
				db, s := open(k)
				if err := s.Insert(k, 5); err != nil {
					t.Fatal(err)
				}
				s.Close()
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				if err := db.Close(); err != nil {
					t.Fatal(err)
				}
			}

			db, s := open(3)
			defer db.Close()
			defer s.Close()
			if !s.DropSynopsis("h") {
				t.Fatal("DropSynopsis(h) = false")
			}
			if err := db.Checkpoint(); err != nil {
				t.Fatal(err)
			}
			rc, _, _, err := db.OpenNewestCheckpoint()
			if err != nil {
				t.Fatal(err)
			}
			defer rc.Close()
			ck, err := wal.DecodeCheckpoint(rc)
			if err != nil {
				t.Fatal(err)
			}
			if len(ck.Specs) != 1 || ck.Specs[0] != specs[1] {
				t.Fatalf("checkpoint after dropping h declares %+v, want only s", ck.Specs)
			}
		})
	}
}

// TestSnapshotNeverTornUnderConcurrentRebuilds is the serving layer's core
// invariant: a batch issued during a storm of mutations and rebuilds
// answers entirely from one snapshot. With every count equal to k at
// version k, any mixed state is detectable from the answers alone.
func TestSnapshotNeverTornUnderConcurrentRebuilds(t *testing.T) {
	const domain = 64
	_, s := newTestServer(t, domain, Config{Debounce: time.Millisecond, MaxLag: 5 * time.Millisecond})
	ones := make([]int64, domain)
	for i := range ones {
		ones[i] = 1
	}

	stop := make(chan struct{})
	var writer sync.WaitGroup
	writer.Add(1)
	go func() {
		defer writer.Done()
		for {
			select {
			case <-stop:
				return
			default:
				if err := s.Load(ones); err != nil {
					t.Error(err)
					return
				}
				_ = s.Rebuild()
			}
		}
	}()

	var readers sync.WaitGroup
	for r := 0; r < 4; r++ {
		readers.Add(1)
		go func() {
			defer readers.Done()
			qs := make([]Query, 0, 32)
			for a := 0; a < domain; a += 4 {
				qs = append(qs, Query{A: a, B: a + 3, Metric: engine.Count})
			}
			for i := 0; i < 300; i++ {
				results, _ := s.QueryBatch(qs)
				k := results[0].Value / 4 // counts are uniform: s[a,a+3] = 4k
				for j, res := range results {
					if res.Err != nil {
						t.Error(res.Err)
						return
					}
					if res.Value != 4*k {
						t.Errorf("torn batch: query %d saw %g, batch started at k=%g", j, res.Value, k)
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
