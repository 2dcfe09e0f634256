package engine

import (
	"runtime"
	"strings"
	"sync/atomic"
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
// queries — run one at a time, and that no registered synopsis lacks a
// write while its Stale reads 0. The race is staged, not timed: while
// the first refresh sits between its capture of the write at x and its
// build, a second write lands at y and a second refresh starts on its
// own goroutine. That refresh must wait until the first registers, and
// then register a synopsis holding both writes.
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
	var raced, startedFrom *Synopsis
	var racedErr, insertErr error
	racedDone := make(chan struct{})
	var captures atomic.Int32
	refreshCaptured = func() {
		switch captures.Add(1) {
		case 1: // the first refresh has captured [x,x]
			if insertErr = e.Insert(y, 500); insertErr != nil {
				close(racedDone)
				return
			}
			go func() {
				defer close(racedDone)
				raced, racedErr = e.BuildSynopsis("s", Count, opt)
			}()
			// Go on building only once the racing refresh has asked
			// for the name's lock.
			for queued := 0; queued < 2; runtime.Gosched() {
				e.mu.RLock()
				queued = e.refreshing["s"].refs
				e.mu.RUnlock()
			}
		case 2: // the racing refresh has captured
			e.mu.RLock()
			startedFrom = e.synopses["s"]
			e.mu.RUnlock()
		}
	}
	defer func() { refreshCaptured = nil }()
	s, err := e.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	<-racedDone
	if insertErr != nil || racedErr != nil {
		t.Fatal(insertErr, racedErr)
	}
	if raced == nil || raced == s {
		t.Fatal("the racing refresh did not register a synopsis of its own")
	}
	if startedFrom != s {
		t.Fatalf("the racing refresh captured while the first was building: it started from %p, not the first's %p", startedFrom, s)
	}
	ps, fs := old.Est.(*segment.Segmented), s.Est.(*segment.Segmented)
	if i := ps.Find(y); fs.Segs[i] != ps.Segs[i] {
		t.Fatalf("the first refresh rebuilt segment %d: it captured before the write at %d", i, y)
	}
	if st := e.Stale(s); st == 0 {
		t.Fatal("the first refresh's synopsis lacks the write at y yet reads Stale 0")
	}
	if cur, err := e.Synopsis("s"); err != nil || cur != raced || e.Stale(raced) != 0 {
		t.Fatalf("registered %p (%v), want the racing refresh's %p at Stale 0", cur, err, raced)
	}
	want, err := ref.BuildSynopsis("s", Count, opt)
	if err != nil {
		t.Fatal(err)
	}
	for a := 0; a < n; a += 37 {
		for b := a; b < n; b += 41 {
			if got, w := raced.Est.Estimate(a, b), want.Est.Estimate(a, b); got != w {
				t.Fatalf("[%d,%d] answers %v after the race, %v after one refresh of both writes", a, b, got, w)
			}
		}
	}
	e.mu.RLock()
	defer e.mu.RUnlock()
	if len(e.refreshing) != 0 {
		t.Fatalf("%d refresh locks outlive their refreshes", len(e.refreshing))
	}
}
