package rangeagg

import (
	"errors"
	"math"
	"slices"
	"strings"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
)

// TestMethodEnumAligned guards the facade's Method constants against the
// registry numbering they resolve to — the public numbering is part of
// persisted configurations and must never shift.
func TestMethodEnumAligned(t *testing.T) {
	pairs := map[Method]build.Method{
		Naive: build.Naive, EquiWidth: build.EquiWidth, EquiDepth: build.EquiDepth,
		MaxDiff: build.MaxDiff, VOptimal: build.VOptimal, PointOpt: build.PointOpt,
		A0: build.A0, SAP0: build.SAP0, SAP1: build.SAP1, OptA: build.OptA,
		OptARounded: build.OptARounded, WaveTopBB: build.WaveTopBB,
		WaveRangeOpt: build.WaveRangeOpt, WaveAA2D: build.WaveAA2D,
		PrefixOpt: build.PrefixOpt, SAP2: build.SAP2, SAP0Approx: build.SAP0Approx,
		A0Approx: build.A0Approx, PointOptApprox: build.PointOptApprox,
		Segmented: build.Segmented,
	}
	if len(pairs) != method.Count() {
		t.Fatalf("pairs cover %d methods, registry has %d", len(pairs), method.Count())
	}
	for pub, internal := range pairs {
		got, err := pub.resolve()
		if err != nil {
			t.Errorf("%v: %v", pub, err)
			continue
		}
		if got != internal {
			t.Errorf("%v resolves to %v, want %v", pub, got, internal)
		}
	}
	if len(Methods()) != method.Count() {
		t.Errorf("Methods() = %d entries", len(Methods()))
	}
	// Unregistered values resolve to the typed error.
	var ue *UnknownMethodError
	if _, err := Method(99).resolve(); !errors.As(err, &ue) || ue.Method != 99 {
		t.Errorf("Method(99).resolve() = %v, want *UnknownMethodError", err)
	}
	if _, err := Build([]int64{1, 2}, Options{Method: Method(-1), BudgetWords: 8}); !errors.As(err, &ue) {
		t.Errorf("Build with Method(-1) = %v, want *UnknownMethodError", err)
	}
}

func TestParseMethodRoundTrip(t *testing.T) {
	for _, m := range Methods() {
		got, err := ParseMethod(m.String())
		if err != nil {
			t.Errorf("%v: %v", m, err)
			continue
		}
		if got != m {
			t.Errorf("ParseMethod(%s) = %v, want %v", m, got, m)
		}
	}
	if _, err := ParseMethod("NOPE"); err == nil {
		t.Error("NOPE accepted")
	}
}

func TestPaperCounts(t *testing.T) {
	c := PaperCounts()
	if len(c) != 127 {
		t.Fatalf("len = %d, want 127", len(c))
	}
	c2 := PaperCounts()
	for i := range c {
		if c[i] != c2[i] {
			t.Fatal("PaperCounts not deterministic")
		}
	}
}

func TestBuildAllMethodsViaFacade(t *testing.T) {
	counts, err := ZipfCounts(31, 1.8, 300, 2)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := Build(counts, Options{Method: Naive})
	if err != nil {
		t.Fatal(err)
	}
	base := SSE(counts, naive)
	for _, m := range Methods() {
		// Epsilon is required by the approximate families and ignored as a
		// quality knob by the rest (OPT-A-ROUNDED treats it the same way).
		syn, err := Build(counts, Options{Method: m, BudgetWords: 12, Seed: 1, Epsilon: 0.1})
		if err != nil {
			t.Errorf("%s: %v", m, err)
			continue
		}
		got := SSE(counts, syn)
		if math.IsNaN(got) || got < 0 {
			t.Errorf("%s: SSE = %g", m, got)
		}
		if got > base*100 {
			t.Errorf("%s: SSE %g wildly worse than NAIVE %g", m, got, base)
		}
		if syn.N() != 31 {
			t.Errorf("%s: N = %d", m, syn.N())
		}
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := Build([]int64{1, -1}, Options{Method: A0, BudgetWords: 8}); err == nil {
		t.Error("negative count accepted")
	}
	if _, err := Build(nil, Options{Method: A0, BudgetWords: 8}); err == nil {
		t.Error("empty counts accepted")
	}
	if _, err := Build([]int64{1, 2}, Options{Method: Method(99), BudgetWords: 8}); err == nil {
		t.Error("unknown method accepted")
	}
	// Approximate methods reject ε outside (0,1) with the typed error; the
	// zero default is no exception.
	var ee *InvalidEpsilonError
	for _, eps := range []float64{0, -0.5, 1, 2, math.NaN()} {
		_, err := Build([]int64{1, 2, 3}, Options{Method: SAP0Approx, BudgetWords: 8, Epsilon: eps})
		if !errors.As(err, &ee) {
			t.Errorf("SAP0Approx ε=%v: err = %v, want *InvalidEpsilonError", eps, err)
		}
	}
	// Exact methods ignore the field entirely.
	if _, err := Build([]int64{1, 2, 3}, Options{Method: A0, BudgetWords: 8, Epsilon: 0}); err != nil {
		t.Errorf("A0 with zero ε rejected: %v", err)
	}

	// Engine and Durable builds convert the options as Build does: every
	// field reaches the construction, and ε is checked the same way.
	counts, err := ZipfCounts(256, 1.4, 300, 7)
	if err != nil {
		t.Fatal(err)
	}
	seg := Options{Method: Segmented, BudgetWords: 64, Segments: 4, SegmentPolicy: "weight-balanced"}
	want, err := Build(counts, seg)
	if err != nil {
		t.Fatal(err)
	}
	eng, err := NewEngine("validation", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{Domain: len(counts), Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	for label, target := range map[string]sharedSurface{"Engine": eng, "Durable": dur} {
		if err := target.Load(counts); err != nil {
			t.Fatal(err)
		}
		if err := target.BuildSynopsis("seg", Count, seg); err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		for a := 0; a < len(counts); a++ {
			for b := a; b < len(counts); b++ {
				if got, err := target.Approx("seg", a, b); err != nil || got != want.Estimate(a, b) {
					t.Fatalf("%s [%d,%d]: %v, %v; Build answers %v", label, a, b, got, err, want.Estimate(a, b))
				}
			}
		}
		bad := seg
		bad.SegmentPolicy = "no-such-policy"
		if err := target.BuildSynopsis("bad", Count, bad); err == nil {
			t.Errorf("%s: unknown segment policy accepted", label)
		}
		err := target.BuildSynopsis("eps", Count, Options{Method: SAP0Approx, BudgetWords: 8, Epsilon: 1.5})
		if !errors.As(err, &ee) {
			t.Errorf("%s: SAP0Approx ε=1.5: err = %v, want *InvalidEpsilonError", label, err)
		}
	}
}

func TestReoptViaFacade(t *testing.T) {
	counts := PaperCounts()
	plain, err := Build(counts, Options{Method: EquiWidth, BudgetWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	re, err := Build(counts, Options{Method: EquiWidth, BudgetWords: 16, Reopt: true})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasSuffix(re.Name(), "-reopt") {
		t.Errorf("name = %q", re.Name())
	}
	if SSE(counts, re) > SSE(counts, plain)+1e-6 {
		t.Error("reopt increased SSE")
	}
}

// TestReoptForWorkload re-optimizes an A0 synopsis of the paper's data
// for a short-range workload: the workload's SSE does not grow, buckets
// no query overlaps keep their values, and a SAP0 synopsis is refused.
func TestReoptForWorkload(t *testing.T) {
	counts := PaperCounts()
	syn, err := Build(counts, Options{Method: A0, BudgetWords: 16})
	if err != nil {
		t.Fatal(err)
	}
	queries := ShortRanges(len(counts), 20, 8, 5)
	re, err := ReoptForWorkload(counts, syn, queries)
	if err != nil {
		t.Fatal(err)
	}
	before, after := Evaluate(counts, syn, queries).SSE, Evaluate(counts, re, queries).SSE
	if after > before*(1+1e-12) {
		t.Errorf("workload SSE grew from %g to %g", before, after)
	}
	in, out := syn.(*histogram.Avg), re.(*histogram.Avg)
	untouched := 0
	for j := 0; j < in.Buckets.NumBuckets(); j++ {
		lo, hi := in.Buckets.Bounds(j)
		if slices.ContainsFunc(queries, func(q Range) bool { return q.A <= hi && q.B >= lo }) {
			continue
		}
		untouched++
		if out.Values[j] != in.Values[j] {
			t.Errorf("untouched bucket %d: value %g, want %g", j, out.Values[j], in.Values[j])
		}
	}
	if untouched == 0 || untouched == in.Buckets.NumBuckets() {
		t.Fatalf("%d of %d buckets untouched; the workload must touch some and miss some", untouched, in.Buckets.NumBuckets())
	}
	sap, err := Build(counts, Options{Method: SAP0, BudgetWords: 15})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ReoptForWorkload(counts, sap, queries); err == nil {
		t.Error("ReoptForWorkload accepted a SAP0 synopsis")
	}
}

func TestEvaluateConsistentWithSSE(t *testing.T) {
	counts, _ := ZipfCounts(40, 1.5, 200, 3)
	syn, err := Build(counts, Options{Method: SAP0, BudgetWords: 15})
	if err != nil {
		t.Fatal(err)
	}
	m := Evaluate(counts, syn, AllRanges(40))
	total := SSE(counts, syn)
	if math.Abs(m.SSE-total) > 1e-6*(1+total) {
		t.Errorf("Evaluate SSE %g != SSE %g", m.SSE, total)
	}
	if m.Queries != 40*41/2 {
		t.Errorf("queries = %d", m.Queries)
	}
}

func TestWorkloadGenerators(t *testing.T) {
	if len(AllRanges(10)) != 55 {
		t.Error("AllRanges wrong")
	}
	for _, q := range RandomRanges(20, 50, 1) {
		if q.A < 0 || q.B >= 20 || q.A > q.B {
			t.Fatalf("bad range %+v", q)
		}
	}
	for _, q := range ShortRanges(20, 50, 4, 1) {
		if q.B-q.A+1 > 4 {
			t.Fatalf("range too wide: %+v", q)
		}
	}
	if len(PointQueries(7)) != 7 {
		t.Error("PointQueries wrong")
	}
}

func TestEngineEndToEnd(t *testing.T) {
	counts := PaperCounts()
	eng, err := NewEngine("orders.amount", len(counts))
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildSynopsis("opta", Count, Options{Method: OptA, BudgetWords: 32}); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildSynopsis("sums", Sum, Options{Method: A0, BudgetWords: 32}); err != nil {
		t.Fatal(err)
	}
	names := eng.SynopsisNames()
	if len(names) != 2 || names[0] != "opta" || names[1] != "sums" {
		t.Fatalf("names = %v", names)
	}

	// Approximate counts should track exact counts closely on this data.
	for _, q := range RandomRanges(eng.Domain(), 200, 9) {
		exact := float64(eng.ExactCount(q.A, q.B))
		approx, err := eng.Approx("opta", q.A, q.B)
		if err != nil {
			t.Fatal(err)
		}
		if math.Abs(approx-exact) > 0.1*float64(eng.Records())+25 {
			t.Fatalf("range [%d,%d]: approx %g vs exact %g", q.A, q.B, approx, exact)
		}
	}

	info, err := eng.Describe("opta")
	if err != nil {
		t.Fatal(err)
	}
	if info.Method != "OPT-A" || info.Metric != Count || info.StorageWords > 32 {
		t.Errorf("info = %+v", info)
	}

	// Mutate, observe staleness, refresh.
	if err := eng.Insert(0, 500); err != nil {
		t.Fatal(err)
	}
	info, _ = eng.Describe("opta")
	if info.Stale == 0 {
		t.Error("no staleness after insert")
	}
	if err := eng.Refresh("opta"); err != nil {
		t.Fatal(err)
	}
	info, _ = eng.Describe("opta")
	if info.Stale != 0 {
		t.Error("stale after refresh")
	}

	rep, err := eng.Report("opta", RandomRanges(eng.Domain(), 100, 4))
	if err != nil {
		t.Fatal(err)
	}
	if rep.Queries != 100 || math.IsNaN(rep.RMS) {
		t.Errorf("report = %+v", rep)
	}
	if _, err := eng.SynopsisSSE("opta"); err != nil {
		t.Fatal(err)
	}
	if !eng.DropSynopsis("sums") {
		t.Error("drop failed")
	}
	if _, err := eng.Approx("sums", 0, 5); err == nil {
		t.Error("dropped synopsis still answers")
	}
}

func TestMetricString(t *testing.T) {
	if Count.String() != "COUNT" || Sum.String() != "SUM" {
		t.Errorf("metric strings: %s %s", Count, Sum)
	}
}

func TestMergeSynopses(t *testing.T) {
	c1, _ := ZipfCounts(40, 1.5, 200, 1)
	c2, _ := ZipfCounts(40, 1.2, 100, 2)
	s1, err := Build(c1, Options{Method: A0, BudgetWords: 10})
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Build(c2, Options{Method: EquiDepth, BudgetWords: 12})
	if err != nil {
		t.Fatal(err)
	}
	merged, err := MergeSynopses(s1, s2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range AllRanges(40) {
		want := s1.Estimate(q.A, q.B) + s2.Estimate(q.A, q.B)
		if got := merged.Estimate(q.A, q.B); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Fatalf("merged(%d,%d) = %g, want %g", q.A, q.B, got, want)
		}
	}
	// Non-average synopses rejected.
	s3, _ := Build(c1, Options{Method: SAP0, BudgetWords: 9})
	if _, err := MergeSynopses(s1, s3); err == nil {
		t.Error("SAP0 merge accepted")
	}
	if _, err := MergeSynopses(s3, s1); err == nil {
		t.Error("SAP0 merge accepted (first arg)")
	}
}
