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
