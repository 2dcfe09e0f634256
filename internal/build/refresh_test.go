package build

import (
	"math/rand"
	"strings"
	"testing"

	"rangeagg/internal/histogram"
	"rangeagg/internal/ingest"
	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

const ladderN = 256

var (
	flatOpt = Options{Method: A0, BudgetWords: 16}
	segOpt  = Options{Method: Segmented, BudgetWords: 64, Segments: 4}
	calm    = ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1e18}
)

func ladderCounts() []int64 {
	c := make([]int64, ladderN)
	for i := range c {
		c[i] = int64(i%11+1) * 3
	}
	return c
}

func mustBuild(t *testing.T, counts []int64, opt Options) Estimator {
	t.Helper()
	est, err := Build(counts, opt)
	if err != nil {
		t.Fatal(err)
	}
	return est
}

// sameAvgAsFromScratch checks the absorb promise: the maintained flat
// histogram equals, bit for bit, NewAvgFromBounds over prev's boundaries.
func sameAvgAsFromScratch(t *testing.T, series []int64, prev, got Estimator) {
	t.Helper()
	bk := prev.(*histogram.Avg).Buckets
	want, err := histogram.NewAvgFromBounds(prefix.NewTable(series), bk, histogram.RoundNone, "want")
	if err != nil {
		t.Fatal(err)
	}
	h := got.(*histogram.Avg)
	if !h.Buckets.Equal(bk) {
		t.Fatal("maintained histogram moved its boundaries")
	}
	for i := range want.Values {
		if h.Values[i] != want.Values[i] {
			t.Fatalf("bucket %d: %v, from scratch %v (bit-exact required)", i, h.Values[i], want.Values[i])
		}
	}
}

// sharesCleanSegments checks the partial promise: exactly the segment
// owning value v was rebuilt, every other one is prev's by pointer.
func sharesCleanSegments(t *testing.T, prev, got Estimator, v int) {
	t.Helper()
	ps, ns := prev.(*segment.Segmented), got.(*segment.Segmented)
	dirty := ps.Find(v)
	for i := range ns.Segs {
		if (ns.Segs[i] == ps.Segs[i]) == (i == dirty) {
			t.Errorf("segment %d: reused=%v, dirty segment is %d", i, ns.Segs[i] == ps.Segs[i], dirty)
		}
	}
}

// TestRefreshLadder pins each rung of build.Refresh: which one a given
// (previous synopsis, window, maintenance state) takes, and what it
// promises about the estimator it returns.
func TestRefreshLadder(t *testing.T) {
	const v, version = 100, 7
	point := func(w *Window) { w.Mark(v, v, ladderN) }
	for _, tc := range []struct {
		name        string
		opt         Options
		prevVersion int64 // -1: no previous synopsis
		mark        func(*Window)
		cfg         *ingest.Config // nil: no maintenance state
		cutover     int
		rung        Rung
		action      string // the maintain rung's outcome, "" when it did not run
		check       func(t *testing.T, series []int64, prev, got Estimator)
	}{
		{name: "reuse", opt: flatOpt, prevVersion: version, mark: func(*Window) {}, cfg: &calm, rung: Reuse,
			check: func(t *testing.T, _ []int64, prev, got Estimator) {
				if got != prev {
					t.Error("reuse returned a different estimator")
				}
			}},
		{name: "empty window at a newer version", opt: flatOpt, prevVersion: version - 1, mark: func(*Window) {}, cfg: &calm, rung: Full},
		{name: "maintain absorb", opt: flatOpt, prevVersion: version - 1, mark: point, cfg: &calm, rung: Maintain, action: "absorb",
			check: sameAvgAsFromScratch},
		{name: "maintain reopt", opt: flatOpt, prevVersion: version - 1, mark: point,
			cfg: &ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: 1, DriftThreshold: 1e18}, rung: Maintain, action: "reopt",
			check: func(t *testing.T, _ []int64, prev, got Estimator) {
				if !got.(*histogram.Avg).Buckets.Equal(prev.(*histogram.Avg).Buckets) {
					t.Error("reopt moved boundaries")
				}
			}},
		{name: "maintain segmented", opt: segOpt, prevVersion: version - 1, mark: point, cfg: &calm, rung: Maintain, action: "absorb"},
		{name: "partial", opt: segOpt, prevVersion: version - 1, mark: point, rung: Partial,
			check: func(t *testing.T, _ []int64, prev, got Estimator) { sharesCleanSegments(t, prev, got, v) }},
		{name: "full without previous synopsis", opt: segOpt, prevVersion: -1, mark: point, cfg: &calm, rung: Full},
		{name: "full on a fully dirty window", opt: segOpt, prevVersion: version - 1, mark: (*Window).MarkAll, cfg: &calm, rung: Full},
		{name: "whole-domain span marks everything", opt: flatOpt, prevVersion: version - 1,
			mark: func(w *Window) { w.Mark(0, ladderN-1, ladderN) }, cfg: &calm, rung: Full},
		{name: "widened points stay partial", opt: segOpt, prevVersion: version - 1,
			mark: func(w *Window) { w.Mark(v, v, ladderN); w.Mark(v+2, v+2, ladderN) }, rung: Partial},
		{name: "full over the cutover", opt: flatOpt, prevVersion: -1, mark: point, cutover: ladderN / 2, rung: Full,
			check: func(t *testing.T, _ []int64, _, got Estimator) {
				if !strings.Contains(got.Name(), "A0-APPROX") {
					t.Errorf("built %q, want the approximate counterpart", got.Name())
				}
			}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series := ladderCounts()
			var prev *Prev
			var prevEst Estimator
			if tc.prevVersion >= 0 {
				prevEst = mustBuild(t, series, tc.opt)
				prev = &Prev{Est: prevEst, Version: tc.prevVersion}
			}
			series[v] += 50
			var win Window
			tc.mark(&win)
			var st *ingest.State
			if tc.cfg != nil {
				st = ingest.NewState(*tc.cfg)
			}
			got, step, err := Refresh(series, version, tc.opt, prev, win, st, tc.cutover)
			if err != nil {
				t.Fatal(err)
			}
			if step.Rung != tc.rung {
				t.Fatalf("rung %d, want %d", step.Rung, tc.rung)
			}
			action := ""
			if step.Ingest != nil {
				action = step.Ingest.Action.String()
			}
			if action != tc.action {
				t.Fatalf("maintain outcome %q, want %q", action, tc.action)
			}
			if tc.check != nil {
				tc.check(t, series, prevEst, got)
			}
		})
	}
}

// TestRefreshEscalation drives exploding point inserts through the
// maintain rung until drift persists past a repair and it escalates:
// the same Refresh call then falls through to the partial rung when the
// method has a Rebuild hook and to a full build otherwise, and
// maintenance resumes from the rebuilt synopsis.
func TestRefreshEscalation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  Options
		rung Rung
	}{
		{"flat escalates to full", flatOpt, Full},
		{"segmented escalates to partial", segOpt, Partial},
	} {
		t.Run(tc.name, func(t *testing.T) {
			series := make([]int64, ladderN)
			for i := range series {
				series[i] = 10
			}
			est := mustBuild(t, series, tc.opt)
			st := ingest.NewState(ingest.Config{Mode: ingest.ModeIncremental, ReoptEvery: -1, DriftThreshold: 1.5})
			rng := rand.New(rand.NewSource(4))
			version, mag, repaired := int64(0), int64(1000), false
			refresh := func(v int, delta int64) (Estimator, Step) {
				t.Helper()
				series[v] += delta
				var win Window
				win.Mark(v, v, ladderN)
				version++
				next, step, err := Refresh(series, version, tc.opt, &Prev{Est: est, Version: version - 1}, win, st, 0)
				if err != nil {
					t.Fatal(err)
				}
				return next, step
			}
			// A benign batch captures the drift baseline.
			est, _ = refresh(3, 1)
			for batch := 0; batch < 20; batch++ {
				v := rng.Intn(ladderN)
				next, step := refresh(v, mag)
				mag *= 4
				if step.Ingest == nil {
					t.Fatalf("batch %d: maintain rung skipped (rung %d)", batch, step.Rung)
				}
				switch step.Ingest.Action {
				case ingest.Repair:
					repaired = true
				case ingest.Escalate:
					if !repaired {
						t.Fatal("escalated before ever repairing")
					}
					if step.Rung != tc.rung {
						t.Fatalf("escalation fell through to rung %d, want %d", step.Rung, tc.rung)
					}
					if tc.rung == Partial {
						sharesCleanSegments(t, est, next, v)
					}
					est = next
					// Reset re-arms the ladder: the next batch is maintained
					// from the rebuilt synopsis again.
					if _, step := refresh(7, 1); step.Rung != Maintain || step.Ingest.Action != ingest.Absorb {
						t.Fatalf("after escalation: rung %d, outcome %+v", step.Rung, step.Ingest)
					}
					return
				}
				if step.Rung != Maintain {
					t.Fatalf("batch %d: rung %d after a %v outcome", batch, step.Rung, step.Ingest.Action)
				}
				est = next
			}
			t.Fatalf("ladder never escalated (repaired=%v)", repaired)
		})
	}
}
