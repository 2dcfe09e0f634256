package serve

import (
	"math"
	"strings"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/engine"
	"rangeagg/internal/segment"
)

func newSegServer(t *testing.T, domain int, cfg Config) (*engine.Engine, *Server) {
	t.Helper()
	eng, err := engine.New("seg", domain)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, domain)
	for i := range counts {
		counts[i] = int64((i*31)%11) * 5
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{{
		Name: "seg", Metric: engine.Count,
		Options: build.Options{Method: build.Segmented, BudgetWords: 40, Segments: 8},
	}}
	s, err := New(eng, specs, cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(s.Close)
	return eng, s
}

// TestServePartialRebuild checks the server's dirty-window path: a point
// insert followed by a rebuild reconstructs only the owning segment of
// the segmented synopsis and bumps the rebuilt/reused counters.
func TestServePartialRebuild(t *testing.T) {
	_, s := newSegServer(t, 512, Config{Debounce: time.Hour})
	prev, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	before := segmentStats()

	if err := s.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	next, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
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
	st := segmentStats()
	if st.Rebuilt-before.Rebuilt != 1 || st.Reused-before.Reused != int64(len(ns.Segs)-1) {
		t.Errorf("stats delta = %+v − %+v, want 1 rebuilt / %d reused", st, before, len(ns.Segs)-1)
	}
	// The refreshed snapshot answers the mutated range within its bound.
	res, _ := s.QueryOne(Query{Synopsis: "seg", A: 90, B: 110})
	if res.Err != nil {
		t.Fatal(res.Err)
	}
	exact := float64(s.Snapshot().ExactCount(90, 110))
	if d := math.Abs(res.Value - exact); d > res.Bound {
		t.Errorf("answer %g off exact %g beyond bound %g", res.Value, exact, res.Bound)
	}
}

// TestServeSynopsisReuse checks the clean fast path: a rebuild with no
// mutations since the last one carries the synopsis (estimator and error
// model) into the new snapshot verbatim.
func TestServeSynopsisReuse(t *testing.T) {
	eng, s := newSegServer(t, 256, Config{Debounce: time.Hour})
	prev, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	before := segmentStats().SynopsesReused
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	next, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	if next.Est != prev.Est || next.ErrModel != prev.ErrModel {
		t.Error("clean rebuild did not carry the synopsis over verbatim")
	}
	if got := segmentStats().SynopsesReused - before; got != 1 {
		t.Errorf("SynopsesReused delta = %d, want 1", got)
	}
	// A mutation that bypasses the server still lands in the window the
	// engine keeps for it, so the next rebuild cannot reuse the synopsis.
	if err := eng.Insert(7, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.Rebuild(); err != nil {
		t.Fatal(err)
	}
	full, err := s.Snapshot().Synopsis("seg")
	if err != nil {
		t.Fatal(err)
	}
	if full.Est == next.Est {
		t.Error("direct engine mutation did not force a rebuild")
	}
}

// TestServeApproxCutover pins that serving follows its engine's cutover:
// lowering it below the domain makes full rebuilds construct through the
// approximate counterpart while registered options keep the exact method.
func TestServeApproxCutover(t *testing.T) {
	eng, err := engine.New("cutover", 64)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 64)
	for i := range counts {
		counts[i] = int64(i % 7)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	specs := []engine.SynopsisSpec{{
		Name: "a", Metric: engine.Count,
		Options: build.Options{Method: build.A0, BudgetWords: 12},
	}}
	eng.SetApproxCutover(32)
	s, err := New(eng, specs, Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	syn, err := s.Snapshot().Synopsis("a")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(syn.Est.Name(), "A0-APPROX") {
		t.Errorf("domain over cutover built %q, want the approximate construction", syn.Est.Name())
	}
	if syn.Options.Method != build.A0 {
		t.Errorf("registered method changed to %v", syn.Options.Method)
	}

	// The default cutover (0 → 32768) leaves a 64-value domain on the
	// exact path.
	eng.SetApproxCutover(0)
	s2, err := New(eng, specs, Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	syn, err = s2.Snapshot().Synopsis("a")
	if err != nil {
		t.Fatal(err)
	}
	if strings.Contains(syn.Est.Name(), "APPROX") {
		t.Errorf("default cutover built %q on a small domain", syn.Est.Name())
	}
}

// TestServeServersKeepOwnWindows pins that two servers over one engine
// never take each other's marks: a write through one server is refreshed
// partially by both, a server reuses only once it has consumed the write
// itself, and closing one leaves the other tracking writes.
func TestServeServersKeepOwnWindows(t *testing.T) {
	eng, s1 := newSegServer(t, 256, Config{Debounce: time.Hour})
	specs := []engine.SynopsisSpec{{
		Name: "seg", Metric: engine.Count,
		Options: build.Options{Method: build.Segmented, BudgetWords: 40, Segments: 8},
	}}
	s2, err := New(eng, specs, Config{Debounce: time.Hour})
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	est := func(s *Server) build.Estimator {
		t.Helper()
		syn, err := s.Snapshot().Synopsis("seg")
		if err != nil {
			t.Fatal(err)
		}
		return syn.Est
	}
	rebuild := func(s *Server) {
		t.Helper()
		if err := s.Rebuild(); err != nil {
			t.Fatal(err)
		}
	}

	before1, before2 := est(s1), est(s2)
	if err := s1.Insert(100, 50); err != nil {
		t.Fatal(err)
	}
	rebuild(s1)
	rebuild(s2)
	for _, c := range []struct {
		name        string
		prev, fresh build.Estimator
	}{{"first", before1, est(s1)}, {"second", before2, est(s2)}} {
		ps, ns := c.prev.(*segment.Segmented), c.fresh.(*segment.Segmented)
		dirty := ps.Find(100)
		for i := range ns.Segs {
			if (ns.Segs[i] == ps.Segs[i]) == (i == dirty) {
				t.Errorf("%s server, segment %d: reused=%v, dirty segment is %d", c.name, i, ns.Segs[i] == ps.Segs[i], dirty)
			}
		}
	}
	if s2.Snapshot().ExactCount(100, 100) != eng.ExactCount(100, 100) {
		t.Fatal("second server did not publish the write")
	}

	// Both have consumed the write: clean rebuilds reuse.
	clean2 := est(s2)
	rebuild(s2)
	if est(s2) != clean2 {
		t.Error("second server rebuilt with nothing pending")
	}

	s1.Close()
	if err := eng.Insert(7, 3); err != nil {
		t.Fatal(err)
	}
	rebuild(s2)
	if est(s2) == clean2 {
		t.Error("second server reused its synopsis after a write")
	}
}
