package wal

import (
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
)

// FuzzWALReplay builds a valid log from an interpreted op stream
// (inserts, deletes, one synopsis build and checkpoints under the
// default KeepCheckpoints), then corrupts the on-disk state (a
// truncation and a bit flip, both fuzzer chosen) and reopens. Recovery
// must never panic, and whenever it succeeds the recovered counts must
// be one of the golden prefix states of the acknowledged sequence — the
// valid-prefix contract. Damage that must cost nothing must leave the
// exact final state, untorn: damage confined to older checkpoints and to
// segments the newest checkpoint covers, or to the newest checkpoint
// alone while an older undamaged one is retained. A second reopen must
// then be clean and idempotent.
func FuzzWALReplay(f *testing.F) {
	f.Add([]byte{}, uint32(0), uint32(0), byte(0))
	f.Add([]byte{0, 5, 9, 13, 200}, uint32(3), uint32(7), byte(1))
	f.Add([]byte{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110, 120}, uint32(17), uint32(300), byte(4))
	f.Add([]byte{255, 254, 253, 3, 7, 11}, uint32(1000), uint32(44), byte(7))
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, uint32(0), uint32(128), byte(3))

	f.Fuzz(func(t *testing.T, ops []byte, cut uint32, flip uint32, bit byte) {
		const domain = 16
		if len(ops) > 64 {
			ops = ops[:64]
		}
		dir := t.TempDir()
		db, _, err := Open(dir, Options{Domain: domain, SegmentBytes: 96, Fsync: FsyncOff})
		if err != nil {
			t.Fatal(err)
		}
		// goldens[i] is the counts after i acknowledged mutations; any
		// recovered state must be exactly one of them.
		goldens := [][]int64{db.Engine().Counts()}
		built := false
		for _, op := range ops {
			v := int(op>>2) % domain
			switch op % 5 {
			case 0, 1:
				if err := db.Insert(v, 1+int64(op%5)); err != nil {
					t.Fatal(err)
				}
			case 2:
				if have := db.Engine().Counts()[v]; have > 0 {
					if err := db.Delete(v, 1+int64(op)%have); err != nil {
						t.Fatal(err)
					}
				} else {
					continue
				}
			case 3:
				if built {
					continue // one build is enough coverage per input
				}
				if _, err := db.BuildSynopsis("h", engine.Count,
					build.Options{Method: build.VOptimal, BudgetWords: 6}); err != nil {
					t.Fatal(err)
				}
				built = true
			case 4:
				if err := db.Checkpoint(); err != nil {
					t.Fatal(err)
				}
				continue
			}
			goldens = append(goldens, db.Engine().Counts())
		}
		if err := db.Close(); err != nil {
			t.Fatal(err)
		}

		harmless := harmlessDamage(t, dir, corrupt(t, dir, cut, flip, bit))

		db2, rec, err := Open(dir, Options{})
		if err != nil {
			if harmless {
				t.Fatalf("recovery failed on harmless damage: %v", err)
			}
			// Unrecoverable damage (e.g. the only checkpoint destroyed) is
			// a reported error, never a panic or a silently wrong state.
			return
		}
		got := db2.Engine().Counts()
		if !isPrefixState(goldens, got) {
			t.Fatalf("recovered counts %v are not a prefix state (torn=%v, replayed=%d)",
				got, rec.Torn, rec.Replayed)
		}
		if harmless {
			if rec.Torn || !reflect.DeepEqual(got, goldens[len(goldens)-1]) {
				t.Fatalf("harmless damage left counts %v (torn=%v), want the final %v",
					got, rec.Torn, goldens[len(goldens)-1])
			}
			if n := len(db2.Engine().Synopses()); (n == 1) != built {
				t.Fatalf("recovered %d synopses, built=%v", n, built)
			}
		}
		if err := db2.Close(); err != nil {
			t.Fatal(err)
		}

		// Recovery truncated the damage away: a second open must be clean
		// and land on the same state.
		db3, rec3, err := Open(dir, Options{})
		if err != nil {
			t.Fatalf("second open after recovery: %v", err)
		}
		defer db3.Close()
		if rec3.Torn {
			t.Fatal("second open still torn: recovery did not truncate the damage")
		}
		if !reflect.DeepEqual(db3.Engine().Counts(), got) {
			t.Fatal("second recovery diverged from the first")
		}
	})
}

// corrupt applies the fuzzer-chosen damage: truncate one file and flip
// one bit in another (possibly the same one). It returns the names of
// the files it changed.
func corrupt(t *testing.T, dir string, cut, flip uint32, bit byte) map[string]bool {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var files []string
	for _, e := range entries {
		if !e.IsDir() {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	damaged := make(map[string]bool)
	if len(files) == 0 {
		return damaged
	}
	sort.Strings(files)

	target := files[int(cut)%len(files)]
	if fi, err := os.Stat(target); err == nil && fi.Size() > 0 {
		if err := os.Truncate(target, int64(cut)%fi.Size()); err != nil {
			t.Fatal(err)
		}
		damaged[filepath.Base(target)] = true
	}
	target = files[int(flip)%len(files)]
	buf, err := os.ReadFile(target)
	if err != nil {
		t.Fatal(err)
	}
	if len(buf) == 0 {
		return damaged
	}
	buf[int(flip)%len(buf)] ^= 1 << (bit % 8)
	if err := os.WriteFile(target, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	damaged[filepath.Base(target)] = true
	return damaged
}

// harmlessDamage reports whether the damaged files are ones recovery
// must lose nothing to, given the directory as it stands: either every
// damaged file is an older checkpoint or a segment the newest checkpoint
// covers (the next segment begins within it, so replay skips it
// unread), or the newest checkpoint is the only damaged file and an
// older undamaged checkpoint is retained (recovery falls back to it,
// and the log reaches back to the oldest retained checkpoint).
func harmlessDamage(t *testing.T, dir string, damaged map[string]bool) bool {
	t.Helper()
	cks, err := listCheckpoints(dir)
	if err != nil {
		t.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(cks) == 0 {
		return false
	}
	newest := cks[len(cks)-1]
	if damaged[filepath.Base(newest.path)] {
		return len(damaged) == 1 && len(cks) > 1
	}
	harmless := make(map[string]bool)
	for _, c := range cks {
		harmless[filepath.Base(c.path)] = true
	}
	for i := 0; i+1 < len(segs); i++ {
		if segs[i+1].base <= newest.base+1 {
			harmless[filepath.Base(segs[i].path)] = true
		}
	}
	for name := range damaged {
		if !harmless[name] {
			return false
		}
	}
	return true
}

// isPrefixState reports whether got equals one of the golden states.
func isPrefixState(goldens [][]int64, got []int64) bool {
	for _, g := range goldens {
		if reflect.DeepEqual(g, got) {
			return true
		}
	}
	return false
}
