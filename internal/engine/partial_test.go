package engine

import (
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/segment"
)

func newSegEngine(t *testing.T, n int) *Engine {
	t.Helper()
	e, err := New("seg", n)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64((i*29)%13) * 7
	}
	if err := e.Load(counts); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestSegmentedPartialRebuild checks the dirty-segment path end to end: a
// point mutation after a segmented build makes the next build of the same
// spec reconstruct only the owning segment, carrying every clean
// segment's histogram over by pointer.
func TestSegmentedPartialRebuild(t *testing.T) {
	e := newSegEngine(t, 512)
	opt := build.Options{Method: build.Segmented, BudgetWords: 40, Segments: 8}
	prev, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	next, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if next == prev {
		t.Fatal("mutated engine returned the previous synopsis unchanged")
	}
	ps, ns := prev.Est.(*segment.Segmented), next.Est.(*segment.Segmented)
	dirty := ps.Find(100)
	for i := range ns.Segs {
		if i == dirty {
			if ns.Segs[i] == ps.Segs[i] {
				t.Errorf("dirty segment %d was not rebuilt", i)
			}
		} else if ns.Segs[i] != ps.Segs[i] {
			t.Errorf("clean segment %d was rebuilt instead of reused", i)
		}
	}
	// The refreshed synopsis serves the new data within its own bound.
	ans, err := e.ApproxWithError("s", 90, 110)
	if err != nil {
		t.Fatal(err)
	}
	exact := float64(e.ExactCount(90, 110))
	if d := ans.Value - exact; d > ans.ErrBound || -d > ans.ErrBound {
		t.Errorf("post-rebuild answer %g off exact %g beyond bound %g", ans.Value, exact, ans.ErrBound)
	}
}

// TestSegmentedSynopsisReuse checks the clean fast path: rebuilding an
// unchanged spec on unchanged data returns the existing synopsis.
func TestSegmentedSynopsisReuse(t *testing.T) {
	e := newSegEngine(t, 256)
	opt := build.Options{Method: build.Segmented, BudgetWords: 30, Segments: 4}
	first, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	again, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if again != first {
		t.Error("clean rebuild did not reuse the existing synopsis")
	}
	// A bulk load with mass across the whole domain dirties everything:
	// the next build is a fresh synopsis, not the reused pointer. (A load
	// of all zeros is a no-op and would keep the reuse fast path.)
	bulk := make([]int64, 256)
	for i := range bulk {
		bulk[i] = 1
	}
	if err := e.Load(bulk); err != nil {
		t.Fatal(err)
	}
	rebuilt, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if rebuilt == first {
		t.Error("bulk load did not force a rebuild")
	}
}

// TestApproxCutoverSubstitution pins the cutover default and checks the
// engine substitutes the (1+ε)-approximate construction at or above it
// while registered options keep the exact method.
func TestApproxCutoverSubstitution(t *testing.T) {
	if build.DefaultApproxCutover != 32768 {
		t.Fatalf("DefaultApproxCutover = %d, want 32768", build.DefaultApproxCutover)
	}
	e := newSegEngine(t, 64)
	opt := build.Options{Method: build.A0, BudgetWords: 12}

	// Domain 64 is under any sensible default; the exact DP builds.
	s, err := e.BuildSynopsis("exact", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.Est.Name(), "APPROX") {
		t.Errorf("domain under cutover built %q, want the exact construction", s.Est.Name())
	}

	// Lowering the cutover below the domain switches construction to the
	// approximate counterpart; the synopsis still registers as A0.
	e.SetApproxCutover(32)
	s, err = e.BuildSynopsis("approx", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(s.Est.Name(), "A0-APPROX") {
		t.Errorf("domain over cutover built %q, want the approximate construction", s.Est.Name())
	}
	if s.Options.Method != build.A0 {
		t.Errorf("registered method changed to %v; substitution must not leak into options", s.Options.Method)
	}

	// A negative cutover disables substitution outright.
	e.SetApproxCutover(-1)
	s, err = e.BuildSynopsis("disabled", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(s.Est.Name(), "APPROX") {
		t.Errorf("disabled cutover still built %q", s.Est.Name())
	}
}

// TestConcurrentSegmentedRefreshes checks that two refreshes of one
// spec racing each other — as auto-refresh runs them from concurrent
// queries — end with a synopsis holding both of their mutations. The
// race is staged, not timed: the second refresh runs while the first
// sits between its capture and its build, so the second registers a
// synopsis missing the first's write, and the first, finding the
// synopsis it started from replaced, hands its mutations back and
// refreshes again from the second's registration.
func TestConcurrentSegmentedRefreshes(t *testing.T) {
	const n = 2048
	opt := build.Options{Method: build.Segmented, BudgetWords: 128, Segments: 2}
	e, ref := newSegEngine(t, n), newSegEngine(t, n)
	old, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ref.BuildSynopsis("s", Count, opt); err != nil {
		t.Fatal(err)
	}
	x, y := 100, n-100 // one point in each segment
	for _, v := range []int{x, y} {
		if err := ref.Insert(v, 500); err != nil {
			t.Fatal(err)
		}
	}
	if err := e.Insert(x, 500); err != nil {
		t.Fatal(err)
	}
	var raced *Synopsis
	refreshCaptured = func() {
		refreshCaptured = nil // the first refresh has captured [x,x]
		if err := e.Insert(y, 500); err != nil {
			t.Fatal(err)
		}
		if raced, err = e.BuildSynopsis("s", Count, opt); err != nil {
			t.Fatal(err)
		}
	}
	defer func() { refreshCaptured = nil }()
	s, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	if raced == nil {
		t.Fatal("the racing refresh never ran")
	}
	ps, rs := old.Est.(*segment.Segmented), raced.Est.(*segment.Segmented)
	if i := ps.Find(x); rs.Segs[i] != ps.Segs[i] {
		t.Fatalf("the racing refresh rebuilt segment %d: it should not have seen the write at %d", i, x)
	}
	if cur, err := e.Synopsis("s"); err != nil || cur != s || s == raced {
		t.Fatalf("registered %p (%v), want the first refresh's retry %p, not the raced %p", cur, err, s, raced)
	}
	want, err := ref.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a += 37 {
		for b := a; b < n; b += 41 {
			if got, w := s.Est.Estimate(a, b), want.Est.Estimate(a, b); got != w {
				t.Fatalf("[%d,%d] answers %v after the race, %v after one refresh of both writes", a, b, got, w)
			}
		}
	}
}
