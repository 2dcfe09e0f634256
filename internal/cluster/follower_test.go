package cluster

import (
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"rangeagg/internal/engine"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// startPrimary runs a durable node: WAL-backed server exposing
// /checkpoint, the replication pull source.
func startPrimary(t *testing.T, domain int) (*serve.Server, *wal.DB, *httptest.Server) {
	t.Helper()
	db, _, err := wal.Open(t.TempDir(), wal.Options{
		Name: "primary", Domain: domain, Fsync: wal.FsyncOff, CheckpointEvery: 1 << 30,
	})
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(db.Engine(), clusterSpecs(), serve.Config{Debounce: time.Hour, WAL: db})
	if err != nil {
		db.Close()
		t.Fatal(err)
	}
	ts := httptest.NewServer(serve.NewHandler(s, serve.NewMetrics()))
	t.Cleanup(func() { ts.Close(); s.Close(); db.Close() })
	return s, db, ts
}

// startReplica runs a bare non-durable node with no synopses of its
// own; it converges on the primary's shape through spec adoption.
func startReplica(t *testing.T, domain int) *serve.Server {
	t.Helper()
	eng, err := engine.New("replica", domain)
	if err != nil {
		t.Fatal(err)
	}
	s, err := serve.New(eng, nil, serve.Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return s
}

func exactCount(t *testing.T, s *serve.Server, a, b int) float64 {
	t.Helper()
	zero := 0.0
	res, _ := s.QueryOne(serve.Query{Metric: engine.Count, A: a, B: b, MaxErr: &zero})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	return res.Value
}

// TestFollowerReplication walks the full replication cycle: pull and
// install, skip when unchanged, converge again after new writes.
func TestFollowerReplication(t *testing.T) {
	const domain = 128
	primary, _, ts := startPrimary(t, domain)
	for v := 0; v < domain; v += 3 {
		if err := primary.Insert(v, int64(v%7)+1); err != nil {
			t.Fatal(err)
		}
	}
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}

	replica := startReplica(t, domain)
	f := &Follower{Primary: ts.URL, Server: replica,
		Client: ts.Client(), Every: time.Hour}
	f.Primary = normalizeAddr(f.Primary)

	if err := f.PullOnce(); err != nil {
		t.Fatal(err)
	}
	if f.Applied() == 0 {
		t.Fatal("install did not record the checkpoint index")
	}
	for _, rg := range [][2]int{{0, domain - 1}, {10, 90}, {64, 64}} {
		if got, want := exactCount(t, replica, rg[0], rg[1]), exactCount(t, primary, rg[0], rg[1]); got != want {
			t.Fatalf("replica [%d,%d] = %v, primary %v", rg[0], rg[1], got, want)
		}
	}
	// The replica adopted the primary's synopsis specs.
	names := replica.Snapshot().Names()
	if len(names) != 2 {
		t.Fatalf("replica synopses %v, want the primary's h and s", names)
	}

	// Steady state: an unchanged checkpoint index skips the reinstall.
	rebuilds := replica.Rebuilds()
	if err := f.PullOnce(); err != nil {
		t.Fatal(err)
	}
	if replica.Rebuilds() != rebuilds {
		t.Fatal("unchanged checkpoint must not trigger a reinstall")
	}

	// New writes on the primary: the next pull converges again (the
	// /checkpoint handler folds un-checkpointed records into a fresh
	// checkpoint, so lag is bounded by the pull interval).
	prevApplied := f.Applied()
	if err := primary.Insert(5, 100); err != nil {
		t.Fatal(err)
	}
	if err := primary.Rebuild(); err != nil {
		t.Fatal(err)
	}
	if err := f.PullOnce(); err != nil {
		t.Fatal(err)
	}
	if f.Applied() <= prevApplied {
		t.Fatalf("applied index did not advance: %d -> %d", prevApplied, f.Applied())
	}
	if got, want := exactCount(t, replica, 0, domain-1), exactCount(t, primary, 0, domain-1); got != want {
		t.Fatalf("replica diverged after new writes: %v vs %v", got, want)
	}
}

// TestFollowerHealthReporting pins the replica readiness contract: a
// follower is unready until its first install, ready while synced, and
// unready again when pulls fail.
func TestFollowerHealthReporting(t *testing.T) {
	const domain = 64
	primary, _, ts := startPrimary(t, domain)
	if err := primary.Insert(3, 9); err != nil {
		t.Fatal(err)
	}

	replica := startReplica(t, domain)
	f := &Follower{Primary: ts.URL, Server: replica, Every: time.Hour}
	f.Start()
	defer f.Stop()

	deadline := time.Now().Add(5 * time.Second)
	for {
		h := replica.Health()
		if h.Follow != nil && h.Follow.Synced {
			if !h.Ready {
				t.Fatalf("synced replica must be ready: %+v", h)
			}
			if h.Follow.Applied == 0 {
				t.Fatalf("synced replica must report its checkpoint index: %+v", h.Follow)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("replica never synced: %+v", h)
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Primary gone: the next pull fails and the replica reports unready
	// (it keeps serving its installed state, but the router deprioritizes
	// it).
	ts.Close()
	if err := f.PullOnce(); err == nil {
		t.Fatal("pull from a dead primary must fail")
	}
	replica.SetFollowState(serve.FollowState{Primary: f.Primary, Applied: f.Applied(), Synced: false, PulledAt: time.Now(), Err: "connection refused"})
	if h := replica.Health(); h.Ready {
		t.Fatalf("unsynced replica must be unready: %+v", h)
	}
}

// TestInstallCheckpointRefusals pins the install guard rails: durable
// nodes refuse (their WAL owns their data) and domain mismatches are
// rejected.
func TestInstallCheckpointRefusals(t *testing.T) {
	primary, db, _ := startPrimary(t, 64)
	if err := primary.Insert(1, 1); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	rc, _, _, err := db.OpenNewestCheckpoint()
	if err != nil {
		t.Fatal(err)
	}
	ck, err := wal.DecodeCheckpoint(rc)
	rc.Close()
	if err != nil {
		t.Fatal(err)
	}

	if err := primary.InstallCheckpoint(ck); err == nil || !strings.Contains(err.Error(), "durable") {
		t.Fatalf("durable node must refuse an install, got %v", err)
	}

	wrong := startReplica(t, 32)
	if err := wrong.InstallCheckpoint(ck); err == nil || !strings.Contains(err.Error(), "domain") {
		t.Fatalf("domain mismatch must be rejected, got %v", err)
	}

	right := startReplica(t, 64)
	if err := right.InstallCheckpoint(ck); err != nil {
		t.Fatal(err)
	}
	if got := exactCount(t, right, 0, 63); got != 1 {
		t.Fatalf("installed state answers %v, want 1", got)
	}
}
