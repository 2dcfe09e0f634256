package engine

import (
	"slices"
	"testing"

	"rangeagg/internal/build"
)

func marked(n int, spans ...[2]int) build.Window {
	var w build.Window
	for _, s := range spans {
		w.Mark(s[0], s[1], n)
	}
	return w
}

// TestWatchKeepsConsumerWindowsApart pins the per-consumer windows: every
// mutation marks every registered watch, a capture takes only its own
// window (with the counts and version of the same locked read), a
// restore hands it back with its staleness clock, and a closed watch is
// no longer marked.
func TestWatchKeepsConsumerWindowsApart(t *testing.T) {
	const n = 64
	e, err := New("w", n)
	if err != nil {
		t.Fatal(err)
	}
	a, b := e.Watch(), e.Watch()
	if err := e.Insert(10, 1); err != nil {
		t.Fatal(err)
	}
	ca := a.Capture()
	if ca.Window != marked(n, [2]int{10, 10}) {
		t.Fatalf("a captured %+v, want [10,10]", ca.Window)
	}
	if ca.Version != e.Version() || !slices.Equal(ca.Counts, e.Counts()) {
		t.Fatal("capture's counts and version disagree with the engine")
	}
	if !a.DirtySince().IsZero() || b.DirtySince().IsZero() {
		t.Fatal("capturing a must clear a's staleness clock and only a's")
	}

	// a's build fails: its mutations stay pending, and later marks widen
	// them. b never saw a's capture.
	a.Restore(ca)
	if err := e.Insert(20, 1); err != nil {
		t.Fatal(err)
	}
	if a.DirtySince().IsZero() {
		t.Fatal("restore dropped the staleness clock")
	}
	if got := a.Capture().Window; got != marked(n, [2]int{10, 10}, [2]int{20, 20}) {
		t.Fatalf("a after restore captured %+v, want [10,20]", got)
	}
	if got := b.Capture().Window; got != marked(n, [2]int{10, 10}, [2]int{20, 20}) {
		t.Fatalf("b captured %+v, want [10,20]", got)
	}

	// A load spanning the whole domain marks everything.
	counts := make([]int64, n)
	counts[0], counts[n-1] = 1, 1
	if err := e.Load(counts); err != nil {
		t.Fatal(err)
	}
	var all build.Window
	all.MarkAll()
	for _, w := range []*Watch{a, b} {
		if got := w.Capture().Window; got != all {
			t.Fatalf("whole-domain load marked %+v, want everything", got)
		}
	}

	a.Close()
	if err := e.Insert(30, 1); err != nil {
		t.Fatal(err)
	}
	if got := a.Capture().Window; got != (build.Window{}) {
		t.Fatalf("closed watch was still marked: %+v", got)
	}
	if got := b.Capture().Window; got != marked(n, [2]int{30, 30}) {
		t.Fatalf("b captured %+v, want [30,30]", got)
	}
}

// TestSynopsisWatchRefreshRule pins the engine's refresh rule: each
// registered synopsis's watch holds the mutations since its data, so a
// refresh of an unchanged spec on unchanged data reuses the synopsis for
// every method, a failed build leaves its mutations pending, and
// dropping or replacing a spec unregisters its watch.
func TestSynopsisWatchRefreshRule(t *testing.T) {
	const n = 32
	e := newLoaded(t)
	before := len(e.watches)
	a0 := build.Options{Method: build.A0, BudgetWords: 12}
	first, err := e.BuildSynopsis("h", Count, a0)
	if err != nil {
		t.Fatal(err)
	}
	watches := len(e.watches)
	if watches != before+1 {
		t.Fatalf("a build registered %d watches, want 1", watches-before)
	}
	if again, err := e.BuildSynopsis("h", Count, a0); err != nil || again != first {
		t.Fatalf("unchanged A0 refresh built %p (%v), want the registered %p", again, err, first)
	}

	// Replacing the spec swaps the watch; a repeat of the new spec
	// reuses its synopsis.
	ew := build.Options{Method: build.EquiWidth, BudgetWords: 12}
	replaced, err := e.BuildSynopsis("h", Count, ew)
	if err != nil {
		t.Fatal(err)
	}
	if len(e.watches) != watches {
		t.Fatalf("spec replacement left %d watches, want %d", len(e.watches), watches)
	}
	if again, err := e.BuildSynopsis("h", Count, ew); err != nil || again != replaced {
		t.Fatalf("repeat build after a replacement built %p (%v), want %p", again, err, replaced)
	}

	// A refresh right after a merge keeps the merged estimator.
	shard := newLoaded(t)
	if _, err := shard.BuildSynopsis("h", Count, ew); err != nil {
		t.Fatal(err)
	}
	merged, err := e.MergeFrom(shard, "h")
	if err != nil {
		t.Fatal(err)
	}
	if len(e.watches) != watches {
		t.Fatalf("merge left %d watches, want %d", len(e.watches), watches)
	}
	if again, err := e.Refresh("h"); err != nil || again != merged {
		t.Fatalf("refresh after merge built %p (%v), want the merged %p", again, err, merged)
	}

	// A build that fails hands its mutations back to the watch.
	rounded := build.Options{Method: build.OptARounded, BudgetWords: 8, RoundedX: 1, MaxStates: 500}
	flat, _ := New("flat", n)
	ones := make([]int64, n)
	for i := range ones {
		ones[i] = 1
	}
	if err := flat.Load(ones); err != nil {
		t.Fatal(err)
	}
	if _, err := flat.BuildSynopsis("r", Count, rounded); err != nil {
		t.Fatal(err)
	}
	for v := 4; v < 28; v++ {
		if err := flat.Insert(v, int64((v*7919)%1000+1)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := flat.BuildSynopsis("r", Count, rounded); err == nil {
		t.Fatal("build over the state budget succeeded")
	}
	s, err := flat.Synopsis("r")
	if err != nil {
		t.Fatal(err)
	}
	if got := s.watch.Capture().Window; got != marked(n, [2]int{4, 27}) {
		t.Fatalf("failed build left %+v pending, want [4,27]", got)
	}

	if !e.DropSynopsis("h") || len(e.watches) != before {
		t.Fatalf("drop left %d watches, want %d", len(e.watches), before)
	}
}
