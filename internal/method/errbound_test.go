package method_test

import (
	"math"
	"math/rand"
	"testing"

	"rangeagg/internal/build"
	"rangeagg/internal/histogram"
	"rangeagg/internal/method"
	"rangeagg/internal/prefix"
)

func zipfish(n int, seed int64) []int64 {
	rng := rand.New(rand.NewSource(seed))
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(float64(200) / float64(1+rng.Intn(40)))
	}
	counts[rng.Intn(n)] += 500
	return counts
}

// TestErrorBoundCapAgreement asserts the cap↔hook pairing the registry
// enforces, and that every one-dimensional family is error-bounded (only
// the 2-D wavelet has no per-range model).
func TestErrorBoundCapAgreement(t *testing.T) {
	for _, d := range method.All() {
		if d.Caps.Has(method.ErrorBounded) != (d.ErrorBound != nil) {
			t.Errorf("%s: ErrorBounded cap and ErrorBound hook disagree", d.Name)
		}
		if d.ID == method.WaveAA2D {
			if d.Caps.Has(method.ErrorBounded) {
				t.Errorf("%s: 2-D wavelet should not claim a per-range error model", d.Name)
			}
			continue
		}
		if !d.Caps.Has(method.ErrorBounded) {
			t.Errorf("%s: every 1-D family should be error-bounded", d.Name)
		}
	}
}

// TestErrorModelCoversAllRanges builds every error-bounded family on a
// skewed distribution and checks, for every range of the domain, that the
// model's bound covers the true residual — the same contract the oracle
// suite grades at larger sizes — and that MaxBound dominates every bound.
func TestErrorModelCoversAllRanges(t *testing.T) {
	const n = 96
	counts := zipfish(n, 5)
	tab := prefix.NewTable(counts)
	for _, d := range method.All() {
		if !d.Caps.Has(method.ErrorBounded) {
			continue
		}
		opt := build.Options{Method: d.ID, BudgetWords: 18, Seed: 1}
		if d.Caps.Has(method.Approximate) {
			opt.Epsilon = 0.1
		}
		est, err := build.Build(counts, opt)
		if err != nil {
			t.Fatalf("%s: build: %v", d.Name, err)
		}
		em, err := d.ErrorBound(tab, est)
		if err != nil {
			t.Fatalf("%s: error model: %v", d.Name, err)
		}
		if !em.Rigorous() {
			t.Errorf("%s: model should be rigorous", d.Name)
		}
		maxB := em.MaxBound()
		for a := 0; a < n; a++ {
			for b := a; b < n; b++ {
				bound := em.Bound(a, b)
				resid := math.Abs(tab.SumF(a, b) - est.Estimate(a, b))
				if bound < resid {
					t.Fatalf("%s: range [%d,%d]: bound %g < residual %g", d.Name, a, b, bound, resid)
				}
				if bound > maxB+1e-12*(1+maxB) {
					t.Fatalf("%s: range [%d,%d]: bound %g exceeds MaxBound %g", d.Name, a, b, bound, maxB)
				}
			}
		}
	}
}

// TestErrorModelRoundingModes checks the cumulative model follows the
// average histogram's actual answering procedure under each rounding mode.
func TestErrorModelRoundingModes(t *testing.T) {
	const n = 64
	counts := zipfish(n, 9)
	tab := prefix.NewTable(counts)
	d := method.MustLookup(method.VOptimal)
	for _, mode := range []histogram.Rounding{histogram.RoundNone, histogram.RoundAnswer, histogram.RoundCumulative} {
		est, err := build.Build(counts, build.Options{Method: method.VOptimal, BudgetWords: 12,
			Rounding: mode})
		if err != nil {
			t.Fatal(err)
		}
		em, err := d.ErrorBound(tab, est)
		if err != nil {
			t.Fatal(err)
		}
		for a := 0; a < n; a += 3 {
			for b := a; b < n; b += 5 {
				bound := em.Bound(a, b)
				resid := math.Abs(tab.SumF(a, b) - est.Estimate(a, b))
				if bound < resid {
					t.Fatalf("mode %d: range [%d,%d]: bound %g < residual %g", mode, a, b, bound, resid)
				}
			}
		}
	}
}

// TestErrorBoundForMatchesHooks checks the representation-dispatched
// entry point used by deserialized synopses agrees with the registry
// hooks.
func TestErrorBoundForMatchesHooks(t *testing.T) {
	const n = 80
	counts := zipfish(n, 3)
	tab := prefix.NewTable(counts)
	for _, id := range []method.ID{method.SAP1, method.A0, method.WaveRangeOpt, method.Segmented} {
		est, err := build.Build(counts, build.Options{Method: id, BudgetWords: 20, Segments: 4})
		if err != nil {
			t.Fatal(err)
		}
		viaHook, err := method.MustLookup(id).ErrorBound(tab, est)
		if err != nil {
			t.Fatal(err)
		}
		viaDispatch, err := method.ErrorBoundFor(tab, est)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range [][2]int{{0, n - 1}, {3, 3}, {5, 40}, {n / 2, n - 2}} {
			if g, w := viaDispatch.Bound(q[0], q[1]), viaHook.Bound(q[0], q[1]); g != w {
				t.Errorf("%s [%d,%d]: dispatch bound %g, hook bound %g", id, q[0], q[1], g, w)
			}
		}
	}
}
