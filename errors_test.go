package rangeagg

import (
	"errors"
	"strings"
	"testing"
)

// sharedSurface is what Engine and Durable both offer, for tests that
// run the same checks against each.
type sharedSurface interface {
	Load(counts []int64) error
	BuildSynopsis(name string, metric Metric, opt Options) error
	DropSynopsis(name string) bool
	MergeFrom(other *Engine, name string) error
	Approx(name string, a, b int) (float64, error)
	ApproxWithError(name string, a, b int) (ApproxAnswer, error)
	ApproxBatch(name string, queries []Range) ([]float64, error)
	Describe(name string) (SynopsisInfo, error)
	Report(name string, queries []Range) (Metrics, error)
	SynopsisSSE(name string) (float64, error)
	Progressive(name string, a, b, chunks int) ([]ProgressiveStep, error)
}

// TestEngineTypedErrors checks every facade entry point that resolves a
// synopsis name fails an unknown (or dropped) name with the one public
// typed error — the unknown-synopsis and unknown-metric paths used to
// fail with differently shaped ad-hoc strings — on an Engine and on a
// Durable alike.
func TestEngineTypedErrors(t *testing.T) {
	eng, err := NewEngine("typed-errors", 32)
	if err != nil {
		t.Fatal(err)
	}
	dur, err := OpenDurable(t.TempDir(), DurableOptions{Domain: 32, Fsync: "off"})
	if err != nil {
		t.Fatal(err)
	}
	defer dur.Close()
	counts := make([]int64, 32)
	for i := range counts {
		counts[i] = int64(i)
	}
	other, _ := NewEngine("other", 32)

	for label, eng := range map[string]sharedSurface{"Engine": eng, "Durable": dur} {
		t.Run(label, func(t *testing.T) {
			if err := eng.Load(counts); err != nil {
				t.Fatal(err)
			}
			cases := map[string]func() error{
				"Approx": func() error { _, err := eng.Approx("ghost", 0, 5); return err },
				"ApproxWithError": func() error {
					_, err := eng.ApproxWithError("ghost", 0, 5)
					return err
				},
				"ApproxBatch": func() error {
					_, err := eng.ApproxBatch("ghost", []Range{{A: 0, B: 5}})
					return err
				},
				"Describe":    func() error { _, err := eng.Describe("ghost"); return err },
				"Report":      func() error { _, err := eng.Report("ghost", []Range{{A: 0, B: 5}}); return err },
				"SynopsisSSE": func() error { _, err := eng.SynopsisSSE("ghost"); return err },
				"MergeFrom":   func() error { return eng.MergeFrom(other, "ghost") },
				"Progressive": func() error { _, err := eng.Progressive("ghost", 0, 5, 2); return err },
			}
			if e, ok := eng.(*Engine); ok {
				cases["Refresh"] = func() error { return e.Refresh("ghost") }
			}
			for name, call := range cases {
				err := call()
				if err == nil {
					t.Errorf("%s: unknown synopsis accepted", name)
					continue
				}
				var use *UnknownSynopsisError
				if !errors.As(err, &use) {
					t.Errorf("%s: error %v (%T) is not *UnknownSynopsisError", name, err, err)
					continue
				}
				if use.Name != "ghost" {
					t.Errorf("%s: error names %q, want %q", name, use.Name, "ghost")
				}
				if !strings.Contains(err.Error(), `"ghost"`) {
					t.Errorf("%s: message %q does not name the synopsis", name, err)
				}
			}

			// A dropped synopsis fails identically to one that never
			// existed — the asymmetry this suite pins down.
			if err := eng.BuildSynopsis("tmp", Count, Options{Method: EquiWidth, BudgetWords: 8}); err != nil {
				t.Fatal(err)
			}
			if !eng.DropSynopsis("tmp") {
				t.Fatal("drop failed")
			}
			var use *UnknownSynopsisError
			if _, err := eng.Approx("tmp", 0, 5); !errors.As(err, &use) {
				t.Errorf("dropped synopsis: error %v (%T) is not *UnknownSynopsisError", err, err)
			}
		})
	}

	if got := (&UnknownMetricError{Name: "median"}).Error(); !strings.Contains(got, `"median"`) {
		t.Errorf("UnknownMetricError message %q does not name the metric", got)
	}
}

// TestApproxWithErrorBoundsResidual checks the public per-answer error
// certificate: for an error-bounded method the bound covers the true
// residual on every probed range, and clamped-out ranges are exact.
func TestApproxWithErrorBoundsResidual(t *testing.T) {
	eng, err := NewEngine("bounds", 64)
	if err != nil {
		t.Fatal(err)
	}
	counts, err := ZipfCounts(64, 1.6, 250, 9)
	if err != nil {
		t.Fatal(err)
	}
	if err := eng.Load(counts); err != nil {
		t.Fatal(err)
	}
	if err := eng.BuildSynopsis("v", Count, Options{Method: VOptimal, BudgetWords: 16}); err != nil {
		t.Fatal(err)
	}
	for a := 0; a < 64; a += 3 {
		for b := a; b < 64; b += 5 {
			ans, err := eng.ApproxWithError("v", a, b)
			if err != nil {
				t.Fatal(err)
			}
			if !ans.Rigorous {
				t.Fatalf("[%d,%d]: bound should be rigorous", a, b)
			}
			exact := float64(eng.ExactCount(a, b))
			if resid := ans.Value - exact; resid > ans.ErrBound || -resid > ans.ErrBound {
				t.Fatalf("[%d,%d]: bound %g does not cover residual %g", a, b, ans.ErrBound, ans.Value-exact)
			}
		}
	}
	ans, err := eng.ApproxWithError("v", 100, 200)
	if err != nil {
		t.Fatal(err)
	}
	if ans.Value != 0 || ans.ErrBound != 0 || !ans.Rigorous {
		t.Fatalf("outside-domain answer: %+v", ans)
	}
}
