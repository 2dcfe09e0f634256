package wal_test

import (
	"bytes"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/obs"
	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// builds counts the synopsis builds this process has run
// (rangeagg_build_seconds observations).
func builds() int64 {
	var n int64
	obs.Default.EachHistogram("rangeagg_build_seconds", func(_ string, _ []obs.Label, h obs.HistSnapshot) {
		n += h.Count
	})
	return n
}

// TestCheckpointSpecOnlySynopsisRebuilds pins what recovery does with a
// spec-only checkpoint entry, a serving layer's declared spec: wal.Open
// builds nothing and registers nothing in the engine, the next
// checkpoint still declares the entry, and the serving layer that
// declares it builds it exactly once, bit-identical to a reference
// build on the same counts.
func TestCheckpointSpecOnlySynopsisRebuilds(t *testing.T) {
	dir := t.TempDir()
	counts := []int64{5, 0, 3, 1, 0, 0, 9, 2}
	spec := engine.SynopsisSpec{Name: "h", Metric: engine.Count, Options: build.Options{Method: build.VOptimal, BudgetWords: 6}}
	db, _, err := wal.Open(dir, wal.Options{Domain: len(counts)})
	if err != nil {
		t.Fatal(err)
	}
	if err := db.Load(counts); err != nil {
		t.Fatal(err)
	}
	db.SetDeclaredSpecs([]engine.SynopsisSpec{spec})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}

	before := builds()
	db, rec, err := wal.Open(dir, wal.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	if rec.Fresh {
		t.Fatal("checkpointed directory read as fresh")
	}
	if n := builds() - before; n != 0 {
		t.Fatalf("recovery ran %d builds, want 0", n)
	}
	if syns := db.Engine().Synopses(); len(syns) != 0 {
		t.Fatalf("recovery registered %d engine synopses, want 0", len(syns))
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
	if len(ck.Specs) != 1 || ck.Specs[0] != spec {
		t.Fatalf("next checkpoint declares %+v, want only %+v", ck.Specs, spec)
	}

	before = builds()
	s, err := serve.New(db.Engine(), []engine.SynopsisSpec{spec}, serve.Config{WAL: db})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if n := builds() - before; n != 1 {
		t.Fatalf("serve.New ran %d builds, want 1", n)
	}
	syn, err := s.Snapshot().Synopsis("h")
	if err != nil {
		t.Fatal(err)
	}
	ref, err := build.Build(counts, spec.Options)
	if err != nil {
		t.Fatal(err)
	}
	var got, want bytes.Buffer
	if err := codec.Write(&got, syn.Est); err != nil {
		t.Fatal(err)
	}
	if err := codec.Write(&want, ref); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got.Bytes(), want.Bytes()) {
		t.Fatal("the declared spec's build differs from a reference build on the same counts")
	}
}
