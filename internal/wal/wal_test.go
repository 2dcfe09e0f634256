package wal

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
)

// openT opens a DB and fails the test on error.
func openT(t *testing.T, dir string, opt Options) (*DB, *Recovery) {
	t.Helper()
	db, rec, err := Open(dir, opt)
	if err != nil {
		t.Fatal(err)
	}
	return db, rec
}

func closeT(t *testing.T, db *DB) {
	t.Helper()
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestFreshDirNeedsDomain(t *testing.T) {
	if _, _, err := Open(t.TempDir(), Options{}); err == nil {
		t.Fatal("opening a fresh directory without a domain should fail")
	}
}

func TestDomainMismatchRejected(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	closeT(t, db)
	if _, _, err := Open(dir, Options{Domain: 64}); err == nil {
		t.Fatal("reopening with a different domain should fail")
	}
	// Omitting the domain must work: the directory is self-describing.
	db, rec := openT(t, dir, Options{})
	defer closeT(t, db)
	if rec.Fresh {
		t.Fatal("second open reported Fresh")
	}
	if got := db.Engine().Domain(); got != 32 {
		t.Fatalf("recovered domain %d, want 32", got)
	}
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	db, rec := openT(t, dir, Options{Domain: 64})
	if !rec.Fresh {
		t.Fatal("first open not Fresh")
	}
	mustNil := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	mustNil(db.Load(counts))
	mustNil(db.Insert(3, 10))
	mustNil(db.Insert(60, 4))
	mustNil(db.Delete(3, 2))
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: build.VOptimal, BudgetWords: 16}); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("gone", engine.Count, build.Options{Method: build.EquiWidth, BudgetWords: 12}); err != nil {
		t.Fatal(err)
	}
	if had, err := db.DropSynopsis("gone"); err != nil || !had {
		t.Fatalf("DropSynopsis(gone) = %v, %v", had, err)
	}
	if had, err := db.DropSynopsis("never-existed"); err != nil || had {
		t.Fatalf("DropSynopsis(absent) = %v, %v; want false, nil", had, err)
	}
	wantCounts := db.Engine().Counts()
	wantRecords := db.Engine().Records()
	wantBytes := encodeT(t, db, "h")
	last := db.log.LastIndex()
	closeT(t, db)

	db2, rec2 := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec2.Fresh || rec2.Torn {
		t.Fatalf("recovery = %+v, want clean non-fresh", rec2)
	}
	if rec2.Replayed != int64(last) {
		t.Fatalf("replayed %d records, want %d", rec2.Replayed, last)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), wantCounts) {
		t.Fatal("recovered counts differ")
	}
	if got := db2.Engine().Records(); got != wantRecords {
		t.Fatalf("recovered %d records, want %d", got, wantRecords)
	}
	if len(db2.Engine().Synopses()) != 1 {
		t.Fatalf("recovered %d synopses, want 1", len(db2.Engine().Synopses()))
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("recovered synopsis wire bytes differ")
	}
	// The log keeps going where it left off.
	if err := db2.Insert(5, 1); err != nil {
		t.Fatal(err)
	}
	if got := db2.log.LastIndex(); got != last+1 {
		t.Fatalf("post-recovery append got index %d, want %d", got, last+1)
	}
}

// encodeT serializes a registered synopsis to its codec envelope bytes.
func encodeT(t *testing.T, db *DB, name string) []byte {
	t.Helper()
	syn, err := db.Engine().Synopsis(name)
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeEstimator(syn.Est)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

func TestSegmentRotationAndReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 16, SegmentBytes: 128})
	for i := 0; i < 40; i++ {
		if err := db.Insert(i%16, 1+int64(i%3)); err != nil {
			t.Fatal(err)
		}
	}
	want := db.Engine().Counts()
	segs, err := db.log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs < 3 {
		t.Fatalf("got %d segments, want rotation to produce several", segs)
	}
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Replayed != 40 || rec.Torn {
		t.Fatalf("recovery = %+v, want 40 clean replays", rec)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("recovered counts differ after multi-segment replay")
	}
}

func TestCheckpointTruncatesLogAndSkipsReplay(t *testing.T) {
	dir := t.TempDir()
	// One retained checkpoint: the log is truncated through the
	// checkpoint itself, not back to an older generation.
	db, _ := openT(t, dir, Options{Domain: 16, SegmentBytes: 64, KeepCheckpoints: 1})
	for i := 0; i < 20; i++ {
		if err := db.Insert(i%16, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: build.VOptimal, BudgetWords: 8}); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if got := db.Stats().RecordsSinceCkpt; got != 0 {
		t.Fatalf("records since checkpoint = %d after Checkpoint", got)
	}
	segs, err := db.log.Segments()
	if err != nil {
		t.Fatal(err)
	}
	if segs != 1 {
		t.Fatalf("%d segments survive the checkpoint, want only the active one", segs)
	}
	want := db.Engine().Counts()
	wantBytes := encodeT(t, db, "h")
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Replayed != 0 {
		t.Fatalf("replayed %d records, want 0 (checkpoint covers everything)", rec.Replayed)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("checkpoint-recovered counts differ")
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("checkpoint-recovered synopsis bytes differ (should be installed verbatim)")
	}
}

func TestMaybeCheckpoint(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8, CheckpointEvery: 4})
	defer closeT(t, db)
	for i := 0; i < 3; i++ {
		if err := db.Insert(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	if did, err := db.MaybeCheckpoint(); err != nil || did {
		t.Fatalf("MaybeCheckpoint below threshold = %v, %v", did, err)
	}
	if err := db.Insert(3, 1); err != nil {
		t.Fatal(err)
	}
	if did, err := db.MaybeCheckpoint(); err != nil || !did {
		t.Fatalf("MaybeCheckpoint at threshold = %v, %v", did, err)
	}
	if got := db.Stats().Checkpoints; got != 1 {
		t.Fatalf("checkpoints = %d, want 1", got)
	}
}

func TestTornTailRecoversValidPrefix(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	var prefixes [][]int64
	prefixes = append(prefixes, db.Engine().Counts())
	for i := 0; i < 10; i++ {
		if err := db.Insert(i%8, int64(i+1)); err != nil {
			t.Fatal(err)
		}
		prefixes = append(prefixes, db.Engine().Counts())
	}
	closeT(t, db)

	// Chop the tail mid-record: the log now ends inside record 10.
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	fi, err := os.Stat(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0].path, fi.Size()-3); err != nil {
		t.Fatal(err)
	}

	db2, rec := openT(t, dir, Options{})
	if !rec.Torn {
		t.Fatal("recovery did not report a torn tail")
	}
	if rec.Replayed != 9 {
		t.Fatalf("replayed %d records, want 9 (the valid prefix)", rec.Replayed)
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), prefixes[9]) {
		t.Fatal("recovered counts are not the 9-record prefix state")
	}
	// The torn bytes are gone: appending and reopening again is clean.
	if err := db2.Insert(0, 100); err != nil {
		t.Fatal(err)
	}
	want := db2.Engine().Counts()
	closeT(t, db2)
	db3, rec3 := openT(t, dir, Options{})
	defer closeT(t, db3)
	if rec3.Torn {
		t.Fatal("second recovery still torn")
	}
	if !reflect.DeepEqual(db3.Engine().Counts(), want) {
		t.Fatal("post-tear append lost")
	}
}

func TestBitFlipStopsReplayAtCorruptRecord(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	for i := 0; i < 6; i++ {
		if err := db.Insert(i, 1); err != nil {
			t.Fatal(err)
		}
	}
	closeT(t, db)

	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments = %v, %v", segs, err)
	}
	buf, err := os.ReadFile(segs[0].path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip one bit in the middle of the record area (past the header):
	// CRC-32C catches it and replay must stop there, keeping the prefix.
	buf[segHdrLen+(len(buf)-segHdrLen)/2] ^= 0x10
	if err := os.WriteFile(segs[0].path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if !rec.Torn {
		t.Fatal("bit flip not reported as torn")
	}
	if rec.Replayed >= 6 {
		t.Fatalf("replayed %d records through a corrupt one", rec.Replayed)
	}
	want := make([]int64, 8)
	for i := int64(0); i < rec.Replayed; i++ {
		want[i] = 1
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatalf("recovered counts %v are not the %d-record prefix", db2.Engine().Counts(), rec.Replayed)
	}
}

// A segment header's base index carries no checksum. A header whose
// base disagrees with the segment's file name is as untrustworthy as an
// unreadable one: recovery stops before that segment, reports the log
// torn, and removes it and every later segment, so a second open is
// clean. Flipping bit 0 of an odd base makes the header claim one
// record the previous segment holds: replay used to skip the segment's
// first record as already applied and replay the rest one index early.
func TestSegmentBaseMismatchStopsReplay(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32, SegmentBytes: 128})
	goldens := [][]int64{db.Engine().Counts()}
	for i := 0; i < 24; i++ {
		if err := db.Insert(i, 1); err != nil {
			t.Fatal(err)
		}
		goldens = append(goldens, db.Engine().Counts())
	}
	closeT(t, db)

	segs, err := listSegments(dir)
	if err != nil || len(segs) < 3 {
		t.Fatalf("segments = %v, %v; want several", segs, err)
	}
	var mid segmentInfo
	for _, sg := range segs[1 : len(segs)-1] {
		if sg.base%2 == 1 {
			mid = sg
			break
		}
	}
	if mid.path == "" {
		t.Fatalf("no middle segment with an odd base in %v", segs)
	}
	buf, err := os.ReadFile(mid.path)
	if err != nil {
		t.Fatal(err)
	}
	hdr := buf[len(segMagic):segHdrLen]
	binary.LittleEndian.PutUint64(hdr, binary.LittleEndian.Uint64(hdr)^1)
	if err := os.WriteFile(mid.path, buf, 0o644); err != nil {
		t.Fatal(err)
	}

	want := goldens[mid.base-1]
	db2, rec := openT(t, dir, Options{})
	if !rec.Torn || rec.Replayed != int64(mid.base-1) {
		t.Fatalf("recovery = %+v, want torn after the %d records before segment %d", rec, mid.base-1, mid.base)
	}
	if got := db2.Engine().Counts(); !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered counts %v, want the state before segment %d: %v", got, mid.base, want)
	}
	closeT(t, db2)

	db3, rec3 := openT(t, dir, Options{})
	defer closeT(t, db3)
	if rec3.Torn || !reflect.DeepEqual(db3.Engine().Counts(), want) {
		t.Fatalf("second open: recovery %+v, counts %v", rec3, db3.Engine().Counts())
	}
}

// corruptNewestCheckpoint flips the last byte of dir's newest
// checkpoint.
func corruptNewestCheckpoint(t *testing.T, dir string) {
	t.Helper()
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 {
		t.Fatalf("%d checkpoints on disk, want 2 (KeepCheckpoints default)", len(cks))
	}
	newest := cks[len(cks)-1].path
	buf, err := os.ReadFile(newest)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), buf...)
	bad[len(bad)-1] ^= 0xff
	if err := os.WriteFile(newest, bad, 0o644); err != nil {
		t.Fatal(err)
	}
}

// wantGapRefused opens dir twice and checks that each open fails on the
// log gap at record missing and that no file changed.
func wantGapRefused(t *testing.T, dir string, missing int) {
	t.Helper()
	before := dirFiles(t, dir)
	for k := 1; k <= 2; k++ {
		db, _, err := Open(dir, Options{})
		if err == nil {
			closeT(t, db)
			t.Fatalf("open %d recovered past a log gap", k)
		}
		if want := fmt.Sprintf("record %d is missing", missing); !strings.Contains(err.Error(), want) {
			t.Fatalf("open %d: err = %v, want it to say %q", k, err, want)
		}
	}
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatal("a refused open modified the data directory")
	}
}

// TestCorruptNewestCheckpointFallsBackOneGeneration damages the newer of
// two checkpoints. The newer checkpoint keeps the log back to the older
// one, so recovery falls back to it and replays the record in between.
// Once that segment is gone, as after outside damage, Open refuses and
// modifies no file.
func TestCorruptNewestCheckpointFallsBackOneGeneration(t *testing.T) {
	setup := func(t *testing.T) (dir, seg string, want []int64) {
		dir = t.TempDir()
		db, _ := openT(t, dir, Options{Domain: 8})
		if err := db.Insert(1, 5); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		if err := db.Insert(2, 7); err != nil {
			t.Fatal(err)
		}
		// Record 2 sits in the active segment, which the next checkpoint
		// rotates away but keeps for the older checkpoint.
		segs, err := listSegments(dir)
		if err != nil {
			t.Fatal(err)
		}
		seg = segs[len(segs)-1].path
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
		want = db.Engine().Counts()
		closeT(t, db)
		if _, err := os.Stat(seg); err != nil {
			t.Fatalf("checkpoint removed the segment the older checkpoint needs: %v", err)
		}
		corruptNewestCheckpoint(t, dir)
		return dir, seg, want
	}
	t.Run("truncated log refuses", func(t *testing.T) {
		dir, seg, _ := setup(t)
		if err := os.Remove(seg); err != nil {
			t.Fatal(err)
		}
		wantGapRefused(t, dir, 2)
	})
	t.Run("restored log falls back", func(t *testing.T) {
		dir, _, want := setup(t)
		db, rec := openT(t, dir, Options{})
		defer closeT(t, db)
		if got := db.Engine().Counts(); !reflect.DeepEqual(got, want) {
			t.Fatalf("recovered %v, want %v", got, want)
		}
		if rec.Fresh || rec.Torn || rec.Checkpoint != 1 || rec.Replayed != 1 {
			t.Fatalf("recovery = %+v, want the older checkpoint plus 1 replayed record", rec)
		}
	})
}

// TestDamagedCheckpointKeepsAcknowledgedTail is the lost-tail
// reproduction: three records acknowledged after the newest checkpoint
// must survive that checkpoint's damage. The log still reaches back to
// the older checkpoint, so recovery falls back one generation and
// replays every acknowledged record, with the newest checkpoint still
// damaged.
func TestDamagedCheckpointKeepsAcknowledgedTail(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	step := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	step(db.Insert(1, 5))
	step(db.Checkpoint())
	step(db.Insert(2, 7))
	step(db.Checkpoint())
	for v := 3; v <= 5; v++ {
		step(db.Insert(v, 1))
	}
	closeT(t, db)
	want := []int64{0, 5, 7, 1, 1, 1, 0, 0}

	corruptNewestCheckpoint(t, dir)
	db, rec := openT(t, dir, Options{})
	defer closeT(t, db)
	if got := db.Engine().Counts(); !reflect.DeepEqual(got, want) || rec.Torn || rec.Checkpoint != 1 || rec.Replayed != 4 {
		t.Fatalf("recovered %v (%+v), want %v from checkpoint 1 plus 4 replayed records", got, rec, want)
	}
}

// checkpointedTail writes two checkpoints with record 2 between them,
// then three more records, and returns the counts it acknowledged.
func checkpointedTail(t *testing.T, db *DB) []int64 {
	t.Helper()
	for _, step := range []func() error{
		func() error { return db.Insert(1, 5) }, db.Checkpoint,
		func() error { return db.Insert(2, 7) }, db.Checkpoint,
		func() error { return db.Insert(3, 1) }, func() error { return db.Insert(4, 1) }, func() error { return db.Insert(5, 1) },
	} {
		if err := step(); err != nil {
			t.Fatal(err)
		}
	}
	return db.Engine().Counts()
}

// flipByte flips the byte at offset off of path, counted from the end
// when negative.
func flipByte(t *testing.T, path string, off int) {
	t.Helper()
	buf, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if off < 0 {
		off += len(buf)
	}
	buf[off] ^= 0xff
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestDamagedCoveredSegmentKeepsTail damages the segment kept between
// two checkpoints, in a record or in its header. The newest checkpoint
// covers it, so recovery skips it: the newest checkpoint and every
// record after it come back, nothing is torn, and no segment changes.
func TestDamagedCoveredSegmentKeepsTail(t *testing.T) {
	for _, tc := range []struct {
		name string
		off  int
	}{{"record", -1}, {"header", 0}} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			db, _ := openT(t, dir, Options{Domain: 8})
			want := checkpointedTail(t, db)
			closeT(t, db)
			segs, err := listSegments(dir)
			if err != nil {
				t.Fatal(err)
			}
			if len(segs) != 2 || segs[0].base != 2 || segs[1].base != 3 {
				t.Fatalf("segments %+v, want record 2's segment kept for checkpoint 1, then the tail's", segs)
			}
			flipByte(t, segs[0].path, tc.off)
			before := dirFiles(t, dir)
			db, rec := openT(t, dir, Options{})
			defer closeT(t, db)
			if got := db.Engine().Counts(); !reflect.DeepEqual(got, want) || rec.Torn || rec.Checkpoint != 2 || rec.Replayed != 3 {
				t.Fatalf("recovered %v (%+v), want %v from checkpoint 2 plus 3 replayed records", got, rec, want)
			}
			after := dirFiles(t, dir)
			for _, s := range segs {
				name := filepath.Base(s.path)
				if !bytes.Equal(after[name], before[name]) {
					t.Fatalf("recovery changed segment %s", name)
				}
			}
		})
	}
}

// TestDamagedCheckpointIsNoGeneration falls back past a damaged newest
// checkpoint twice. The checkpoint written after the first fallback
// keeps the intact older one, not the damaged one, and the log back to
// it, so damaging the new checkpoint too still recovers every record.
func TestDamagedCheckpointIsNoGeneration(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	checkpointedTail(t, db)
	closeT(t, db)
	corruptNewestCheckpoint(t, dir)
	db, _ = openT(t, dir, Options{})
	if err := db.Insert(6, 2); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	want := db.Engine().Counts()
	closeT(t, db)
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 || cks[0].base != 1 || cks[1].base != 6 {
		t.Fatalf("checkpoints %+v, want the intact checkpoint 1 and the new 6", cks)
	}
	corruptNewestCheckpoint(t, dir)
	db, rec := openT(t, dir, Options{})
	defer closeT(t, db)
	if got := db.Engine().Counts(); !reflect.DeepEqual(got, want) || rec.Torn || rec.Checkpoint != 1 || rec.Replayed != 5 {
		t.Fatalf("recovered %v (%+v), want %v from checkpoint 1 plus 5 replayed records", got, rec, want)
	}
}

// TestCheckpointKeepsLogForOlderGeneration checkpoints three times under
// the default options: the log is removed through the oldest retained
// checkpoint, and kept from there on.
func TestCheckpointKeepsLogForOlderGeneration(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	defer closeT(t, db)
	for v := 1; v <= 3; v++ {
		if err := db.Insert(v, 1); err != nil {
			t.Fatal(err)
		}
		if err := db.Checkpoint(); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(4, 1); err != nil {
		t.Fatal(err)
	}
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) != 2 || cks[0].base != 2 || cks[1].base != 3 {
		t.Fatalf("checkpoints %+v, want 2 and 3", cks)
	}
	if len(segs) != 2 || segs[0].base != 3 || segs[1].base != 4 {
		t.Fatalf("segments %+v, want records 1 and 2 removed, 3 kept for checkpoint 2, 4 active", segs)
	}
}

func TestOnlyCheckpointCorruptFailsOpen(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 8})
	closeT(t, db)
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) != 1 {
		t.Fatalf("checkpoints = %v, %v", cks, err)
	}
	if err := os.WriteFile(cks[0].path, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Open(dir, Options{Domain: 8}); err == nil {
		t.Fatal("open should fail rather than silently reinitialize over a damaged checkpoint")
	}
}

// inboxBlob returns the codec bytes of a mergeable estimator over
// domain 32: the payload the retired shard inbox logged and
// checkpointed.
func inboxBlob(t *testing.T) []byte {
	t.Helper()
	counts := make([]int64, 32)
	counts[4] = 9
	est, err := build.Build(counts, build.Options{Method: build.EquiWidth, BudgetWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	blob, err := encodeEstimator(est)
	if err != nil {
		t.Fatal(err)
	}
	return blob
}

// dirFiles reads every file of dir by name.
func dirFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	files := make(map[string][]byte, len(entries))
	for _, e := range entries {
		buf, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		files[e.Name()] = buf
	}
	return files
}

// wantInboxRefused opens dir twice and checks that each open fails with
// a *ShardInboxError for synopsis "h" and that no file changed.
func wantInboxRefused(t *testing.T, dir string) {
	t.Helper()
	before := dirFiles(t, dir)
	for k := 1; k <= 2; k++ {
		db, _, err := Open(dir, Options{})
		if err == nil {
			closeT(t, db)
		}
		var inbox *ShardInboxError
		if !errors.As(err, &inbox) || inbox.Name != "h" {
			t.Fatalf("open %d: err = %v, want a *ShardInboxError for h", k, err)
		}
	}
	if !reflect.DeepEqual(dirFiles(t, dir), before) {
		t.Fatal("a refused open modified the data directory")
	}
}

func TestShardInboxRecordRefused(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	if err := db.Insert(1, 3); err != nil {
		t.Fatal(err)
	}
	// A merge record without counts, as the inbox logged it.
	if _, err := db.log.Append(recordWire{Kind: KindMerge, Name: "h", Blob: inboxBlob(t)}); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(5, 2); err != nil {
		t.Fatal(err)
	}
	closeT(t, db)
	wantInboxRefused(t, dir)
}

// TestShardInboxCheckpointRefused writes a newest checkpoint carrying a
// shards section, as the inbox wrote it, next to an older clean one:
// Open must refuse it rather than fall back, and so must a replica
// decoding the same bytes.
func TestShardInboxCheckpointRefused(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	if err := db.Insert(1, 3); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := db.Insert(5, 2); err != nil {
		t.Fatal(err)
	}
	applied, counts := db.Applied(), db.Engine().Counts()
	closeT(t, db)
	body, err := json.Marshal(map[string]any{
		"name": "durable", "domain": 32, "applied": applied, "counts": counts,
		"shards": []map[string]any{{"name": "h", "blob": inboxBlob(t)}},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := writeCheckpointBytes(dir, applied, body); err != nil {
		t.Fatal(err)
	}
	wantInboxRefused(t, dir)

	buf, err := os.ReadFile(filepath.Join(dir, checkpointName(applied)))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := DecodeCheckpoint(bytes.NewReader(buf))
	var inbox *ShardInboxError
	if !errors.As(err, &inbox) || inbox.Name != "h" {
		t.Fatalf("DecodeCheckpoint = %+v, %v; want a *ShardInboxError for h", ck, err)
	}
}

func TestAbsorbShardReplaysAndMerges(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 32})
	if err := db.Insert(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("h", engine.Count, build.Options{Method: build.VOptimal, BudgetWords: 8}); err != nil {
		t.Fatal(err)
	}

	shard, err := engine.New("shard", 32)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Insert(20, 11); err != nil {
		t.Fatal(err)
	}
	ssyn, err := shard.BuildSynopsis("h", engine.Count, build.Options{Method: build.VOptimal, BudgetWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.AbsorbShard("h", shard.Counts(), ssyn.Metric, ssyn.Options, ssyn.Est); err != nil {
		t.Fatal(err)
	}
	want := db.Engine().Counts()
	wantBytes := encodeT(t, db, "h")
	closeT(t, db)

	db2, rec := openT(t, dir, Options{})
	defer closeT(t, db2)
	if rec.Torn {
		t.Fatal("absorb replay torn")
	}
	if !reflect.DeepEqual(db2.Engine().Counts(), want) {
		t.Fatal("absorbed counts not recovered")
	}
	if !bytes.Equal(encodeT(t, db2, "h"), wantBytes) {
		t.Fatal("merged synopsis bytes differ after replay")
	}
}

// TestRecoveryRefreshesCheckpointedSynopsesAsLive pins that a synopsis
// restored from a checkpoint refreshes on replay exactly as the live
// engine refreshed it: a merged synopsis rebuilt on unchanged data is
// reused, and a segmented one rebuilt after a point insert is rebuilt
// only in the dirty segment. Recovery reproduces both bit for bit.
func TestRecoveryRefreshesCheckpointedSynopsesAsLive(t *testing.T) {
	const n = 256
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: n})
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64((i*29)%13) * 7
	}
	if err := db.Load(counts); err != nil {
		t.Fatal(err)
	}
	seg := build.Options{Method: build.Segmented, BudgetWords: 40, Segments: 8}
	if _, err := db.BuildSynopsis("seg", engine.Count, seg); err != nil {
		t.Fatal(err)
	}
	shard, err := engine.New("shard", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := shard.Insert(20, 11); err != nil {
		t.Fatal(err)
	}
	a0 := build.Options{Method: build.A0, BudgetWords: 12}
	ssyn, err := shard.BuildSynopsis("a", engine.Count, a0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := db.AbsorbShard("a", shard.Counts(), ssyn.Metric, ssyn.Options, ssyn.Est)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("seg", engine.Count, seg); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if again, err := db.BuildSynopsis("a", engine.Count, a0); err != nil || again != merged {
		t.Fatalf("refresh after the merge built %p (%v), want the merged %p", again, err, merged)
	}
	if err := db.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	if _, err := db.BuildSynopsis("seg", engine.Count, seg); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{"a": encodeT(t, db, "a"), "seg": encodeT(t, db, "seg")}
	closeT(t, db)

	db2, _ := openT(t, dir, Options{})
	defer closeT(t, db2)
	for name, blob := range want {
		if !bytes.Equal(encodeT(t, db2, name), blob) {
			t.Errorf("synopsis %q differs after recovery from its live refresh", name)
		}
	}
}

// TestStaleSynopsisStaysStaleAcrossRestarts pins that a synopsis stale
// at a checkpoint stays stale through later restarts: a checkpoint taken
// right after recovery, with nothing replayed, must not record the
// restored estimator fresh, or the next recovery would reuse the
// pre-insert estimator (or keep its stale segments) where the live
// engine rebuilds it from the current counts.
func TestStaleSynopsisStaysStaleAcrossRestarts(t *testing.T) {
	const n = 256
	specs := map[string]build.Options{
		"a":   {Method: build.A0, BudgetWords: 12},
		"seg": {Method: build.Segmented, BudgetWords: 40, Segments: 8},
	}
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: n})
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64((i*29)%13) * 7
	}
	if err := db.Load(counts); err != nil {
		t.Fatal(err)
	}
	for name, opt := range specs {
		if _, err := db.BuildSynopsis(name, engine.Count, opt); err != nil {
			t.Fatal(err)
		}
	}
	if err := db.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeT(t, db)

	db, _ = openT(t, dir, Options{})
	if err := db.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	closeT(t, db)

	db, _ = openT(t, dir, Options{})
	defer closeT(t, db)
	eng := db.Engine()
	ref, err := engine.New("ref", n)
	if err != nil {
		t.Fatal(err)
	}
	if err := ref.Load(eng.Counts()); err != nil {
		t.Fatal(err)
	}
	for name, opt := range specs {
		s, err := eng.Synopsis(name)
		if err != nil {
			t.Fatal(err)
		}
		if eng.Stale(s) == 0 {
			t.Errorf("synopsis %q reads fresh after two restarts, but predates the insert", name)
		}
		if _, err := db.BuildSynopsis(name, engine.Count, opt); err != nil {
			t.Fatal(err)
		}
		rs, err := ref.BuildSynopsis(name, engine.Count, opt)
		if err != nil {
			t.Fatal(err)
		}
		want, err := encodeEstimator(rs.Est)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(encodeT(t, db, name), want) {
			t.Errorf("synopsis %q after two restarts is not a rebuild of the current counts", name)
		}
	}
}

func TestFsyncPolicies(t *testing.T) {
	for _, policy := range []FsyncPolicy{FsyncAlways, FsyncInterval, FsyncOff} {
		t.Run(policy.String(), func(t *testing.T) {
			dir := t.TempDir()
			db, _ := openT(t, dir, Options{Domain: 8, Fsync: policy})
			if err := db.Insert(2, 2); err != nil {
				t.Fatal(err)
			}
			stats := db.Stats()
			if stats.Appends != 1 {
				t.Fatalf("appends = %d, want 1", stats.Appends)
			}
			if policy == FsyncAlways && stats.Fsyncs == 0 {
				t.Fatal("always policy recorded no fsyncs")
			}
			closeT(t, db)
			db2, rec := openT(t, dir, Options{})
			defer closeT(t, db2)
			if rec.Replayed != 1 {
				t.Fatalf("replayed %d, want 1 (clean close syncs every policy)", rec.Replayed)
			}
		})
	}
}

func TestParseFsyncPolicy(t *testing.T) {
	for in, want := range map[string]FsyncPolicy{
		"always": FsyncAlways, "": FsyncAlways, "INTERVAL": FsyncInterval, "off": FsyncOff,
	} {
		got, err := ParseFsyncPolicy(in)
		if err != nil || got != want {
			t.Fatalf("ParseFsyncPolicy(%q) = %v, %v; want %v", in, got, err, want)
		}
	}
	if _, err := ParseFsyncPolicy("sometimes"); err == nil {
		t.Fatal("unknown policy accepted")
	}
}

// A checkpoint with a nil synopsis blob (a non-serializable family, or a
// checkpoint written by a build without the codec) is rebuilt from the
// checkpoint counts.
func TestSegmentNameRoundTrip(t *testing.T) {
	for _, base := range []uint64{0, 1, 0xdeadbeef, 1 << 60} {
		got, ok := parseSegmentName(segmentName(base))
		if !ok || got != base {
			t.Fatalf("parseSegmentName(segmentName(%d)) = %d, %v", base, got, ok)
		}
	}
	if _, ok := parseSegmentName("checkpoint-0000000000000001.ckpt"); ok {
		t.Fatal("checkpoint name parsed as segment")
	}
	if _, ok := parseCheckpointName(filepath.Base(segmentName(1))); ok {
		t.Fatal("segment name parsed as checkpoint")
	}
}

// TestRefusedMutationsAreNotLogged pins that a mutation the engine
// refuses — a load with a bad entry after good ones, an insert past the
// record bound — leaves both the live engine and the log untouched, so
// the engine never holds a change the log never saw.
func TestRefusedMutationsAreNotLogged(t *testing.T) {
	dir := t.TempDir()
	db, _ := openT(t, dir, Options{Domain: 4})
	if err := db.Load([]int64{1, 2, 3, 4}); err != nil {
		t.Fatal(err)
	}
	eng := db.Engine()
	counts, records, version := eng.Counts(), eng.Records(), eng.Version()
	appends := db.Stats().Appends

	if err := db.Load([]int64{5, 0, -1, 0}); err == nil {
		t.Fatal("a load with a negative count was accepted")
	}
	var oe *engine.OverflowError
	if err := db.Insert(3, math.MaxInt64); !errors.As(err, &oe) {
		t.Fatalf("Insert(3, MaxInt64) = %v, want an OverflowError", err)
	}
	if got := eng.Counts(); !reflect.DeepEqual(got, counts) || eng.Records() != records || eng.Version() != version {
		t.Fatalf("refused mutations changed the engine: counts %v records %d version %d", got, eng.Records(), eng.Version())
	}
	if got := db.Stats().Appends; got != appends {
		t.Fatalf("refused mutations were logged: %d appends, want %d", got, appends)
	}
	if err := db.Close(); err != nil {
		t.Fatal(err)
	}
	db2, _ := openT(t, dir, Options{})
	defer db2.Close()
	if got := db2.Engine().Counts(); !reflect.DeepEqual(got, counts) {
		t.Fatalf("recovered counts %v, want %v", got, counts)
	}
}
