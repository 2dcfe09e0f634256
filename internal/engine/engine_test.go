package engine

import (
	"math"
	"slices"
	"sync"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/sse"
)

func newLoaded(t *testing.T) *Engine {
	t.Helper()
	e, err := New("test", 32)
	if err != nil {
		t.Fatal(err)
	}
	counts := make([]int64, 32)
	for i := range counts {
		counts[i] = int64((i*13)%7) * 10
	}
	if err := e.Load(counts); err != nil {
		t.Fatal(err)
	}
	return e
}

func TestNewValidation(t *testing.T) {
	if _, err := New("x", 0); err == nil {
		t.Error("domain 0 accepted")
	}
}

func TestLoadAndExactCount(t *testing.T) {
	e := newLoaded(t)
	counts := e.Counts()
	var want int64
	for v := 3; v <= 10; v++ {
		want += counts[v]
	}
	if got := e.ExactCount(3, 10); got != want {
		t.Errorf("ExactCount(3,10) = %d, want %d", got, want)
	}
	// Clamping.
	if got := e.ExactCount(-5, 100); got != e.Records() {
		t.Errorf("clamped full count = %d, want %d", got, e.Records())
	}
	if got := e.ExactCount(10, 3); got != 0 {
		t.Errorf("inverted range = %d, want 0", got)
	}
}

func TestExactSum(t *testing.T) {
	e, _ := New("s", 5)
	if err := e.Load([]int64{0, 2, 0, 1, 3}); err != nil {
		t.Fatal(err)
	}
	// SUM over [1,4] = 1·2 + 3·1 + 4·3 = 17.
	if got := e.ExactSum(1, 4); got != 17 {
		t.Errorf("ExactSum = %d, want 17", got)
	}
}

func TestLoadValidation(t *testing.T) {
	e, _ := New("x", 4)
	if err := e.Load([]int64{1, 2}); err == nil {
		t.Error("wrong length accepted")
	}
	if err := e.Load([]int64{1, -2, 3, 4}); err == nil {
		t.Error("negative count accepted")
	}
}

func TestInsertDelete(t *testing.T) {
	e, _ := New("x", 8)
	if err := e.Insert(3, 5); err != nil {
		t.Fatal(err)
	}
	if err := e.Insert(9, 1); err == nil {
		t.Error("out-of-domain insert accepted")
	}
	if err := e.Insert(3, 0); err == nil {
		t.Error("zero occurrences accepted")
	}
	if got := e.ExactCount(3, 3); got != 5 {
		t.Errorf("count = %d, want 5", got)
	}
	if err := e.Delete(3, 2); err != nil {
		t.Fatal(err)
	}
	if got := e.ExactCount(3, 3); got != 3 {
		t.Errorf("count after delete = %d, want 3", got)
	}
	if err := e.Delete(3, 10); err == nil {
		t.Error("overdelete accepted")
	}
	if e.Records() != 3 {
		t.Errorf("records = %d, want 3", e.Records())
	}
}

func TestSynopsisLifecycle(t *testing.T) {
	e := newLoaded(t)
	s, err := e.BuildSynopsis("main", Count, build.Options{Method: build.A0, BudgetWords: 8})
	if err != nil {
		t.Fatal(err)
	}
	if e.Stale(s) != 0 {
		t.Errorf("fresh synopsis stale = %d", e.Stale(s))
	}
	got, err := e.Approx("main", 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-float64(e.Records())) > 1e-6 {
		t.Errorf("full-range approx = %g, want %d", got, e.Records())
	}
	// Mutations make it stale; Refresh resets.
	if err := e.Insert(0, 100); err != nil {
		t.Fatal(err)
	}
	if e.Stale(s) == 0 {
		t.Error("mutation did not raise staleness")
	}
	s2, err := e.Refresh("main")
	if err != nil {
		t.Fatal(err)
	}
	if e.Stale(s2) != 0 {
		t.Error("refreshed synopsis still stale")
	}
	// Listing and dropping.
	if got := e.Synopses(); len(got) != 1 || got[0].Name != "main" {
		t.Errorf("Synopses = %v", got)
	}
	if !e.DropSynopsis("main") {
		t.Error("drop failed")
	}
	if e.DropSynopsis("main") {
		t.Error("double drop succeeded")
	}
	if _, err := e.Approx("main", 0, 3); err == nil {
		t.Error("query on dropped synopsis succeeded")
	}
}

func TestSumSynopsis(t *testing.T) {
	e := newLoaded(t)
	// A0 stores true bucket averages, so the full-domain SUM estimate is
	// exact (the middle pieces of equation (1) are exact).
	if _, err := e.BuildSynopsis("sums", Sum, build.Options{Method: build.A0, BudgetWords: 12}); err != nil {
		t.Fatal(err)
	}
	approx, err := e.Approx("sums", 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	want := float64(e.ExactSum(0, 31))
	if math.Abs(approx-want) > 1e-6*(1+want) {
		t.Errorf("full-range SUM approx = %g, want %g", approx, want)
	}
	// SAP answers are model-based even for the full range; just require a
	// sane relative error.
	if _, err := e.BuildSynopsis("sums-sap", Sum, build.Options{Method: build.SAP0, BudgetWords: 12}); err != nil {
		t.Fatal(err)
	}
	sapApprox, err := e.Approx("sums-sap", 0, 31)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(sapApprox-want) > 0.5*want {
		t.Errorf("SAP0 full-range SUM approx = %g, want within 50%% of %g", sapApprox, want)
	}
}

func TestApproxClamping(t *testing.T) {
	e := newLoaded(t)
	if _, err := e.BuildSynopsis("m", Count, build.Options{Method: build.EquiWidth, BudgetWords: 8}); err != nil {
		t.Fatal(err)
	}
	got, err := e.Approx("m", -10, 100)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-float64(e.Records())) > 1e-6 {
		t.Errorf("clamped approx = %g", got)
	}
	if got, _ := e.Approx("m", 50, 60); got != 0 {
		t.Errorf("outside-domain approx = %g, want 0", got)
	}
}

func TestReportAndSSE(t *testing.T) {
	e := newLoaded(t)
	if _, err := e.BuildSynopsis("m", Count, build.Options{Method: build.SAP1, BudgetWords: 15}); err != nil {
		t.Fatal(err)
	}
	m, err := e.Report("m", sse.AllRanges(32))
	if err != nil {
		t.Fatal(err)
	}
	total, err := e.SSE("m")
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(m.SSE-total) > 1e-6*(1+total) {
		t.Errorf("Report SSE %g != SSE() %g", m.SSE, total)
	}
	if m.Queries != 32*33/2 {
		t.Errorf("queries = %d", m.Queries)
	}
}

func TestConcurrentReadsAndWrites(t *testing.T) {
	e := newLoaded(t)
	if _, err := e.BuildSynopsis("m", Count, build.Options{Method: build.MaxDiff, BudgetWords: 10}); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				switch g % 4 {
				case 0:
					_ = e.ExactCount(i%32, 31)
				case 1:
					_, _ = e.Approx("m", 0, i%32)
				case 2:
					_ = e.Insert(i%32, 1)
				case 3:
					_ = e.Counts()
				}
			}
		}(g)
	}
	wg.Wait()
	if e.Records() < int64(32) {
		t.Error("records lost")
	}
}

func TestAutoRefresh(t *testing.T) {
	e := newLoaded(t)
	if _, err := e.BuildSynopsis("m", Count, build.Options{Method: build.A0, BudgetWords: 16}); err != nil {
		t.Fatal(err)
	}
	e.SetAutoRefresh(5)
	// Make the synopsis very stale and shift the data substantially.
	for i := 0; i < 10; i++ {
		if err := e.Insert(0, 1000); err != nil {
			t.Fatal(err)
		}
	}
	// The policy must rebuild before answering, so the point query at 0
	// reflects the new mass.
	got, err := e.Approx("m", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got < 5000 {
		t.Fatalf("auto-refresh did not happen: approx(0,0) = %g", got)
	}
	s, err := e.Synopsis("m")
	if err != nil {
		t.Fatal(err)
	}
	if e.Stale(s) != 0 {
		t.Errorf("stale after auto-refresh: %d", e.Stale(s))
	}
	// Disabled policy leaves stale synopses alone.
	e.SetAutoRefresh(0)
	for i := 0; i < 10; i++ {
		if err := e.Insert(1, 1); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := e.Approx("m", 0, 0); err != nil {
		t.Fatal(err)
	}
	s, _ = e.Synopsis("m")
	if e.Stale(s) == 0 {
		t.Error("disabled auto-refresh still rebuilt")
	}
}

func TestProgressive(t *testing.T) {
	e := newLoaded(t)
	if _, err := e.BuildSynopsis("m", Count, build.Options{Method: build.EquiWidth, BudgetWords: 6}); err != nil {
		t.Fatal(err)
	}
	steps, err := e.Progressive("m", 3, 28, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(steps) < 2 {
		t.Fatalf("steps = %d", len(steps))
	}
	// First step is the pure synopsis answer.
	syn, _ := e.Approx("m", 3, 28)
	if math.Abs(steps[0].Estimate-syn) > 1e-9 {
		t.Errorf("first step %g != synopsis %g", steps[0].Estimate, syn)
	}
	// Final step is exact and fully scanned.
	last := steps[len(steps)-1]
	if last.Scanned != last.Of {
		t.Errorf("final step scanned %d of %d", last.Scanned, last.Of)
	}
	if want := float64(e.ExactCount(3, 28)); math.Abs(last.Estimate-want) > 1e-9 {
		t.Errorf("final step %g != exact %g", last.Estimate, want)
	}
	// Scanned counts increase strictly.
	for i := 1; i < len(steps); i++ {
		if steps[i].Scanned <= steps[i-1].Scanned {
			t.Errorf("scanned not increasing at %d", i)
		}
	}
	// Degenerate inputs.
	if steps, err := e.Progressive("m", 50, 60, 4); err != nil || len(steps) != 1 {
		t.Errorf("outside-domain: %v %v", steps, err)
	}
	if _, err := e.Progressive("missing", 0, 3, 4); err == nil {
		t.Error("missing synopsis accepted")
	}
	// chunks <= 0 defaults sanely.
	if steps, err := e.Progressive("m", 0, 31, 0); err != nil || len(steps) < 2 {
		t.Errorf("default chunks: %v %v", len(steps), err)
	}
	// A chunk count above the width reads one value per chunk: the same
	// width+1 steps as chunks = width, without sizing anything by it.
	perValue, err := e.Progressive("m", 0, 31, 32)
	if err != nil || len(perValue) != 33 {
		t.Fatalf("chunks = width: %d steps, %v", len(perValue), err)
	}
	for _, chunks := range []int{1 << 40, math.MaxInt} {
		steps, err := e.Progressive("m", 0, 31, chunks)
		if err != nil || !slices.Equal(steps, perValue) {
			t.Errorf("chunks = %d: %v, %v; want the %d steps of chunks = width", chunks, steps, err, len(perValue))
		}
	}
}
