package rangeagg

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestStoreFacadeRoundTrip(t *testing.T) {
	s := NewStore("wh")
	col, err := s.CreateColumn("amount", 64)
	if err != nil {
		t.Fatal(err)
	}
	counts, _ := ZipfCounts(64, 1.5, 400, 4)
	if err := col.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := col.BuildSynopsis("h", Count, Options{Method: SAP1, BudgetWords: 20, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateColumn("age", 16); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := OpenStore(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.Name() != "wh" {
		t.Errorf("name = %q", back.Name())
	}
	cols := back.Columns()
	if len(cols) != 2 || cols[0] != "age" || cols[1] != "amount" {
		t.Fatalf("columns = %v", cols)
	}
	rcol, err := back.Column("amount")
	if err != nil {
		t.Fatal(err)
	}
	want, _ := col.Approx("h", 3, 40)
	got, err := rcol.Approx("h", 3, 40)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
		t.Errorf("restored approx %g, want %g", got, want)
	}
	if !back.DropColumn("age") {
		t.Error("drop failed")
	}
	if _, err := back.Column("age"); err == nil {
		t.Error("dropped column still present")
	}
}

func TestStoreColumnLifecycle(t *testing.T) {
	s := NewStore("warehouse")
	if s.Name() != "warehouse" {
		t.Errorf("name = %q", s.Name())
	}
	a, err := s.CreateColumn("amount", 16)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.CreateColumn("amount", 16); err == nil {
		t.Error("duplicate column accepted")
	}
	if _, err := s.CreateColumn("bad", 0); err == nil {
		t.Error("zero-domain column accepted")
	}
	if _, err := s.CreateColumn("age", 8); err != nil {
		t.Fatal(err)
	}
	got, err := s.Column("amount")
	if err != nil || got != a {
		t.Fatalf("Column lookup: %v %v", got, err)
	}
	if _, err := s.Column("missing"); err == nil {
		t.Error("missing column lookup succeeded")
	}
	cols := s.Columns()
	if len(cols) != 2 || cols[0] != "age" || cols[1] != "amount" {
		t.Errorf("Columns = %v", cols)
	}
	if !s.DropColumn("age") || s.DropColumn("age") {
		t.Error("drop semantics wrong")
	}
}

// TestStoreSaveLoadRoundTrip checks a saved store reopens with its
// columns and synopses, and that the file format holds byte for byte:
// testdata/golden/store.json, saved by an earlier release from the same
// store this test builds, opens and saves back to the same bytes.
func TestStoreSaveLoadRoundTrip(t *testing.T) {
	s := NewStore("warehouse")
	amount, err := s.CreateColumn("amount", 32)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 32)
	for i := range counts {
		counts[i] = int64(200 / (i + 1))
	}
	if err := amount.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := amount.BuildSynopsis("h", Count, Options{Method: A0, BudgetWords: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	if err := amount.BuildSynopsis("s", Sum, Options{Method: SAP0, BudgetWords: 12, Seed: 1}); err != nil {
		t.Fatal(err)
	}
	age, err := s.CreateColumn("age", 8)
	if err != nil {
		t.Fatal(err)
	}
	if err := age.Insert(3, 100); err != nil {
		t.Fatal(err)
	}

	var buf bytes.Buffer
	if err := s.Save(&buf); err != nil {
		t.Fatal(err)
	}
	golden, err := os.ReadFile(filepath.Join("testdata", "golden", "store.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Errorf("saved store differs from the earlier release's file:\n got %s\nwant %s", buf.Bytes(), golden)
	}
	for _, saved := range [][]byte{buf.Bytes(), golden} {
		restored, err := OpenStore(bytes.NewReader(saved))
		if err != nil {
			t.Fatal(err)
		}
		if restored.Name() != "warehouse" || len(restored.Columns()) != 2 {
			t.Fatalf("restored: %s %v", restored.Name(), restored.Columns())
		}
		ra, err := restored.Column("amount")
		if err != nil {
			t.Fatal(err)
		}
		if ra.Records() != amount.Records() {
			t.Errorf("records %d, want %d", ra.Records(), amount.Records())
		}
		// Rebuilt synopses answer identically (deterministic construction).
		for _, name := range []string{"h", "s"} {
			want, err := amount.Approx(name, 2, 20)
			if err != nil {
				t.Fatal(err)
			}
			got, err := ra.Approx(name, 2, 20)
			if err != nil {
				t.Fatal(err)
			}
			if math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
				t.Errorf("synopsis %q: %g, want %g", name, got, want)
			}
		}
		rage, _ := restored.Column("age")
		if rage.ExactCount(3, 3) != 100 {
			t.Error("age column data lost")
		}
		var again bytes.Buffer
		if err := restored.Save(&again); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(again.Bytes(), golden) {
			t.Errorf("reopened store saves as %s, want %s", again.Bytes(), golden)
		}
	}
}

func TestLoadStoreRejectsCorrupt(t *testing.T) {
	cases := []string{
		`{broken`,
		`{"name":"x","columns":[{"name":"c","domain":4,"counts":[1,2]}]}`,                                                              // count/domain mismatch
		`{"name":"x","columns":[{"name":"c","domain":0,"counts":[]}]}`,                                                                 // bad domain
		`{"name":"x","columns":[{"name":"c","domain":2,"counts":[1,-2]}]}`,                                                             // negative
		`{"name":"x","columns":[{"name":"c","domain":2,"counts":[1,2],"synopses":[{"name":"s","metric":0,"options":{"Method":99}}]}]}`, // bad method
	}
	for _, c := range cases {
		if _, err := OpenStore(strings.NewReader(c)); err == nil {
			t.Errorf("accepted %q", c)
		}
	}
}
