package wavelet

import (
	"bytes"
	"fmt"
	"math"
	"strings"
	"testing"

	"rangeagg/internal/dataset"
)

// refRangeSum is the O(B) TOPBB answer: c·BasisRangeSum summed over
// every kept coefficient in index order. It is the reference the
// O(log N) rangeSum must reproduce bit for bit.
func refRangeSum(s *DataSynopsis, a, b int) float64 {
	var sum float64
	for _, c := range s.coeffs {
		sum += c.Value * BasisRangeSum(s.pow, c.Index, a, b)
	}
	return sum
}

// TestDataSynopsisMatchesFullSum checks Estimate and CumEstimate against
// the O(B) coefficient sum with math.Float64bits on every range, over
// zipf, uniform and spiked data at non-power-of-two n, for budgets from
// one coefficient to more than the transform holds, and again after a
// WriteJSON/ReadJSON round trip.
func TestDataSynopsisMatchesFullSum(t *testing.T) {
	const n = 77 // pads to 128
	zipf, err := dataset.Zipf(dataset.ZipfConfig{N: n, Alpha: 1.3, MaxCount: 5000, Seed: 4, Permute: true})
	if err != nil {
		t.Fatal(err)
	}
	uniform, err := dataset.Uniform(n, 0, 900, 5)
	if err != nil {
		t.Fatal(err)
	}
	spikes, err := dataset.Spikes(n, 6, 10000, 6)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []*dataset.Distribution{zipf, uniform, spikes} {
		for _, budget := range []int{1, 2, 5, 17, 64, 127, 128, 200} {
			s, err := NewData(d.Counts, budget)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := WriteJSON(&buf, s); err != nil {
				t.Fatal(err)
			}
			back, err := ReadJSON(&buf)
			if err != nil {
				t.Fatal(err)
			}
			for _, syn := range []*DataSynopsis{s, back.(*DataSynopsis)} {
				name := fmt.Sprintf("%s/B=%d", d.Name, budget)
				if syn != s {
					name += "/json"
				}
				for a := 0; a < n; a++ {
					for b := a; b < n; b++ {
						if got, want := syn.Estimate(a, b), refRangeSum(s, a, b); math.Float64bits(got) != math.Float64bits(want) {
							t.Fatalf("%s: Estimate(%d,%d) = %v, O(B) sum %v", name, a, b, got, want)
						}
					}
				}
				for ti := 0; ti <= s.pow+2; ti++ {
					want := 0.0
					if ti > 0 {
						want = refRangeSum(s, 0, ti-1)
					}
					if got := syn.CumEstimate(ti); math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("%s: CumEstimate(%d) = %v, O(B) sum %v", name, ti, got, want)
					}
				}
			}
		}
	}
}

// A repeated coefficient index would answer through both copies in a
// full sum but through one in the lookup map; ReadJSON refuses it.
func TestReadJSONRejectsRepeatedIndex(t *testing.T) {
	for _, kind := range []string{"data", "prefix"} {
		c := fmt.Sprintf(`{"kind":%q,"n":4,"pow":8,"coeffs":[{"Index":3,"Value":1},{"Index":3,"Value":2}]}`, kind)
		if _, err := ReadJSON(strings.NewReader(c)); err == nil || !strings.Contains(err.Error(), "repeated") {
			t.Errorf("%s: err = %v, want a repeated-index refusal", kind, err)
		}
	}
}
