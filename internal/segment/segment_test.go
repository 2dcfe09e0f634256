package segment

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"rangeagg/internal/dp"
	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
)

// zipfish builds a deterministic skewed series: heavy head, long tail,
// a few spikes — enough structure that weight-balanced splits and the
// allocator have something to react to.
func zipfish(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(float64(400) / math.Pow(float64(i+1), 1.2))
		if rng.Intn(16) == 0 {
			counts[i] += int64(rng.Intn(200))
		}
	}
	return counts
}

func TestParsePolicy(t *testing.T) {
	cases := []struct {
		in   string
		want Policy
	}{
		{"", EquiWidth},
		{"equi-width", EquiWidth},
		{"weight-balanced", WeightBalanced},
	}
	for _, c := range cases {
		got, err := ParsePolicy(c.in)
		if err != nil || got != c.want {
			t.Errorf("ParsePolicy(%q) = %v, %v; want %v", c.in, got, err, c.want)
		}
		if c.in != "" && got.String() != c.in {
			t.Errorf("Policy(%v).String() = %q, want %q", got, got.String(), c.in)
		}
	}
	if _, err := ParsePolicy("fancy"); err == nil {
		t.Error("ParsePolicy accepted an unknown policy")
	}
}

func TestSplitPolicies(t *testing.T) {
	const n, k = 64, 8
	counts := zipfish(n, 3)
	tab := prefix.NewTable(counts)

	ew, err := Split(tab, k, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range ew {
		if want := i * n / k; s != want {
			t.Errorf("equi-width start[%d] = %d, want %d", i, s, want)
		}
	}

	wb, err := Split(tab, k, WeightBalanced)
	if err != nil {
		t.Fatal(err)
	}
	if err := validStarts(n, wb); err != nil {
		t.Fatalf("weight-balanced starts invalid: %v", err)
	}
	// Skewed data concentrates mass at the head, so the weight-balanced
	// partition must cut the head finer than equal width would.
	if len(wb) > 2 && wb[1] >= n/k {
		t.Errorf("weight-balanced first boundary %d not finer than equi-width %d on skewed data", wb[1], n/k)
	}
}

func TestAllocateSanityAndMonotone(t *testing.T) {
	const n, k = 256, 4
	counts := zipfish(n, 5)
	tab := prefix.NewTable(counts)
	starts, err := Split(tab, k, EquiWidth)
	if err != nil {
		t.Fatal(err)
	}

	if _, err := Allocate(counts, starts, len(starts)-1); err == nil {
		t.Error("Allocate accepted a unit pool smaller than the segment count")
	}

	prevUnits := make([]int, len(starts))
	for _, total := range []int{4, 8, 16, 32, 64} {
		pl, err := Allocate(counts, starts, total)
		if err != nil {
			t.Fatal(err)
		}
		if got := pl.TotalUnits(); got > total {
			t.Errorf("total=%d: allocated %d units over budget", total, got)
		}
		for i, u := range pl.Units {
			if u < 1 {
				t.Errorf("total=%d: segment %d allocated %d units (< 1)", total, i, u)
			}
			// Budget-independent curves make the greedy allocation
			// monotone: growing the pool never shrinks any segment.
			if u < prevUnits[i] {
				t.Errorf("total=%d: segment %d shrank from %d to %d units", total, i, prevUnits[i], u)
			}
		}
		copy(prevUnits, pl.Units)
	}
}

func TestBuildBudgetAndComposition(t *testing.T) {
	const n, w = 512, 40
	counts := zipfish(n, 7)
	tab := prefix.NewTable(counts)

	for _, p := range []Policy{EquiWidth, WeightBalanced} {
		s, err := Build(tab, counts, BuildOpts{K: 8, Policy: p, BudgetWords: w})
		if err != nil {
			t.Fatal(err)
		}
		if s.StorageWords() > w {
			t.Errorf("%v: storage %d words over budget %d", p, s.StorageWords(), w)
		}
		if s.N() != n {
			t.Errorf("%v: N() = %d, want %d", p, s.N(), n)
		}
		// Per-segment answers must compose: the full-domain estimate is
		// exactly the sum of the per-segment estimates (the cumulative
		// curve is a running composition, so this is an identity).
		var sum float64
		for i := 0; i < s.SegmentCount(); i++ {
			lo, hi := s.SegmentBounds(i)
			if s.Find(lo) != i || s.Find(hi) != i {
				t.Fatalf("%v: Find does not invert SegmentBounds(%d)", p, i)
			}
			sum += s.Estimate(lo, hi)
		}
		if full := s.Estimate(0, n-1); math.Abs(full-sum) > 1e-6*(1+math.Abs(full)) {
			t.Errorf("%v: full-range estimate %g != per-segment sum %g", p, full, sum)
		}
	}

	if _, err := Build(tab, counts, BuildOpts{BudgetWords: 2}); err == nil {
		t.Error("Build accepted a budget below the one-segment minimum")
	}
	if _, err := Build(tab, counts[:n-1], BuildOpts{BudgetWords: 20}); err == nil {
		t.Error("Build accepted a counts slice shorter than the prefix table")
	}
}

func TestRebuildWindow(t *testing.T) {
	const n, w = 512, 40
	counts := zipfish(n, 11)
	tab := prefix.NewTable(counts)
	prev, err := Build(tab, counts, BuildOpts{K: 8, BudgetWords: w})
	if err != nil {
		t.Fatal(err)
	}

	// Mutate a single value; only its owning segment should rebuild.
	mut := append([]int64(nil), counts...)
	mut[100] += 500
	next, st, err := Rebuild(mut, prev, 100, 100, 0)
	if err != nil {
		t.Fatal(err)
	}
	dirty := prev.Find(100)
	if st.Rebuilt != 1 || st.Reused != prev.SegmentCount()-1 {
		t.Errorf("stats = %+v, want 1 rebuilt / %d reused", st, prev.SegmentCount()-1)
	}
	for i := range next.Segs {
		if i == dirty {
			if next.Segs[i] == prev.Segs[i] {
				t.Errorf("dirty segment %d was not rebuilt", i)
			}
		} else if next.Segs[i] != prev.Segs[i] {
			t.Errorf("clean segment %d was not carried over verbatim", i)
		}
	}
	// A full-window rebuild reconstructs every segment and, on unchanged
	// data, reproduces the previous answers exactly (the inner builds
	// are deterministic).
	all, st, err := Rebuild(counts, prev, 0, n-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	if st.Rebuilt != prev.SegmentCount() || st.Reused != 0 {
		t.Errorf("full-window stats = %+v", st)
	}
	for _, q := range [][2]int{{0, n - 1}, {13, 77}, {200, 501}} {
		if got, want := all.Estimate(q[0], q[1]), prev.Estimate(q[0], q[1]); got != want {
			t.Errorf("range %v: full-window rebuild answers %g, original %g", q, got, want)
		}
	}

	if _, _, err := Rebuild(mut, nil, 0, 0, 0); err == nil {
		t.Error("Rebuild accepted a nil previous synopsis")
	}
	if _, _, err := Rebuild(mut[:n-1], prev, 0, 0, 0); err == nil {
		t.Error("Rebuild accepted a counts slice of the wrong length")
	}
	if _, _, err := Rebuild(mut, prev, 10, 5, 0); err == nil {
		t.Error("Rebuild accepted an empty window")
	}
}

func TestMergeAdditivity(t *testing.T) {
	const n, w = 256, 32
	a := zipfish(n, 13)
	b := zipfish(n, 17)
	ta, tb := prefix.NewTable(a), prefix.NewTable(b)

	// Equi-width shards over the same domain agree on the partition.
	sa, err := Build(ta, a, BuildOpts{K: 4, BudgetWords: w})
	if err != nil {
		t.Fatal(err)
	}
	sb, err := Build(tb, b, BuildOpts{K: 4, BudgetWords: w})
	if err != nil {
		t.Fatal(err)
	}
	// Merge needs identical partitions and bucketings; a shard built
	// against the coordinator's layout (full-window rebuild of sa's
	// structure over b's data) always qualifies.
	sb2, _, err := Rebuild(b, sa, 0, n-1, 0)
	if err != nil {
		t.Fatal(err)
	}
	merged, err := Merge(sa, sb2)
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range [][2]int{{0, n - 1}, {0, 0}, {60, 70}, {63, 64}, {10, 200}} {
		want := sa.Estimate(q[0], q[1]) + sb2.Estimate(q[0], q[1])
		if got := merged.Estimate(q[0], q[1]); math.Abs(got-want) > 1e-9*(1+math.Abs(want)) {
			t.Errorf("range %v: merged %g, want sum %g", q, got, want)
		}
	}

	if _, err := Merge(sa, sb); err == nil {
		// sa and sb have the same partition but independently allocated
		// bucketings; only identical bucketings merge. If allocation
		// happened to coincide this merge succeeds — tolerate that.
		t.Log("independent builds happened to share a bucketing")
	}
	wb, err := Build(tb, b, BuildOpts{K: 3, Policy: WeightBalanced, BudgetWords: w})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Merge(sa, wb); err == nil {
		t.Error("Merge accepted shards with different partitions")
	}
}

func TestClampK(t *testing.T) {
	cases := []struct{ k, n, w, want int }{
		{0, 1 << 20, 100, 8},   // default
		{8, 4, 100, 4},         // at most one segment per value
		{8, 1 << 20, 9, 3},     // W/3 feasibility cap
		{8, 1 << 20, 2, 1},     // never below one
		{16, 1 << 20, 300, 16}, // explicit request honored
	}
	for _, c := range cases {
		if got := clampK(c.k, c.n, c.w); got != c.want {
			t.Errorf("clampK(%d,%d,%d) = %d, want %d", c.k, c.n, c.w, got, c.want)
		}
	}
}

// eagerCurve is a segment's curve computed the way the allocator did
// before it stepped layers on demand: every layer up to the cap at once,
// through a serial DP on the closure form of the fused A0 cost, then a
// running minimum.
func eagerCurve(counts []int64, lo, hi int) []float64 {
	series := curveSeries(counts, lo, hi)
	n := len(series)
	cost := dp.FusedA0Cost(prefix.NewTable(series))
	prev := make([]float64, n+1)
	for i := 1; i <= n; i++ {
		prev[i] = math.MaxFloat64
	}
	curve := []float64{math.MaxFloat64}
	for k := 1; k <= min(maxCurveUnits, n); k++ {
		cur := make([]float64, n+1)
		for i := range cur {
			cur[i] = math.MaxFloat64
			for j := k - 1; j < i; j++ {
				if prev[j] >= cur[i] {
					continue
				}
				if c := prev[j] + cost(j, i-1); c < cur[i] {
					cur[i] = c
				}
			}
		}
		curve = append(curve, min(cur[n], curve[k-1]))
		prev = cur
	}
	return curve
}

// eagerAllocate is the greedy marginal-gain allocation over eager
// curves, with the segments that flat marks saturated at one bucket.
func eagerAllocate(curves [][]float64, flat []bool, totalUnits int) []int {
	units := make([]int, len(curves))
	for i := range units {
		units[i] = 1
	}
	for remaining := totalUnits - len(curves); remaining > 0; remaining-- {
		best, bestGain := -1, -1.0
		for i, c := range curves {
			if u := units[i]; !flat[i] && u+1 < len(c) && c[u]-c[u+1] > bestGain {
				best, bestGain = i, c[u]-c[u+1]
			}
		}
		if best < 0 {
			break
		}
		units[best]++
	}
	return units
}

// TestAllocateMatchesEagerCurves checks that stepping each curve only
// as far as the greedy reads it allocates exactly what the eager
// all-layers curves do, at pool widths 1 and 3: over random series,
// partitions and budgets, with all-zero segments, segments narrower
// than curveCells and coarsened wider ones, and budgets that drive
// segments to maxCurveUnits and past every cap.
func TestAllocateMatchesEagerCurves(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	type tc struct {
		counts []int64
		starts []int
		units  []int
	}
	var cases []tc
	for c := 0; c < 10; c++ {
		n := 40 + rng.Intn(200)
		counts := zipfish(n, int64(c))
		k := 1 + rng.Intn(5)
		starts := []int{0}
		for _, p := range rng.Perm(n - 1)[:k-1] {
			starts = append(starts, p+1)
		}
		sort.Ints(starts)
		if c%3 == 0 { // zero out one segment
			lo, hi := segBounds(n, starts, rng.Intn(k))
			clear(counts[lo : hi+1])
		}
		cases = append(cases, tc{counts, starts, []int{k, k + 1 + rng.Intn(3*k), k + rng.Intn(n)}})
	}
	// Wide segments: one coarsened past curveCells, one all zero, and
	// budgets that reach maxCurveUnits in one segment and exhaust both
	// non-zero curves.
	wide := zipfish(1400, 99)
	clear(wide[1200:])
	cases = append(cases, tc{wide, []int{0, 900, 1200}, []int{140, 200, 400}})

	for ci, c := range cases {
		curves := make([][]float64, len(c.starts))
		flat := make([]bool, len(c.starts))
		for i := range curves {
			lo, hi := segBounds(len(c.counts), c.starts, i)
			curves[i] = eagerCurve(c.counts, lo, hi)
			flat[i] = slices.Min(c.counts[lo:hi+1]) == slices.Max(c.counts[lo:hi+1])
		}
		for _, total := range c.units {
			want := eagerAllocate(curves, flat, total)
			for _, w := range []int{1, 3} {
				prev := parallel.SetWorkers(w)
				pl, err := Allocate(c.counts, c.starts, total)
				parallel.SetWorkers(prev)
				if err != nil {
					t.Fatalf("case %d, %d units, width %d: %v", ci, total, w, err)
				}
				if !slices.Equal(pl.Units, want) {
					t.Fatalf("case %d (starts %v), %d units, width %d: allocated %v, eager curves allocate %v",
						ci, c.starts, total, w, pl.Units, want)
				}
			}
			if ci == len(cases)-1 && total == 400 && !slices.Equal(want, []int{maxCurveUnits, maxCurveUnits, 1}) {
				t.Fatalf("400 units should exhaust both non-zero curves of the wide case at %d and leave the zero segment one bucket: %v", maxCurveUnits, want)
			}
		}
	}
}

// TestAllocateConstantSegmentKeepsOneBucket checks the saturation rule:
// a constant segment, all zero or not, gets exactly one bucket at every
// budget, and the budget the other segments' curves cannot use stays
// unspent.
func TestAllocateConstantSegmentKeepsOneBucket(t *testing.T) {
	counts := zipfish(600, 3)
	for i := 200; i < 350; i++ {
		counts[i] = 7
	}
	clear(counts[350:450])
	starts := []int{0, 200, 350, 450}
	for _, total := range []int{4, 5, 8, 20, 64, 130, 200, 256, 258, 400} {
		pl, err := Allocate(counts, starts, total)
		if err != nil {
			t.Fatal(err)
		}
		if pl.Units[1] != 1 || pl.Units[2] != 1 {
			t.Fatalf("%d units: constant segments got %v, want one bucket each", total, pl.Units)
		}
		if want := min(total, 2*maxCurveUnits+2); pl.TotalUnits() != want {
			t.Fatalf("%d units: allocated %v (%d), want %d", total, pl.Units, pl.TotalUnits(), want)
		}
	}
}
