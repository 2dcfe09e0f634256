package histogram

import (
	"bytes"
	"strings"
	"testing"

	"rangeagg/internal/prefix"
)

func buildAll(t *testing.T) []Estimator {
	t.Helper()
	tab := prefix.NewTable([]int64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3})
	b, err := NewBucketing(10, []int{0, 3, 7})
	if err != nil {
		t.Fatal(err)
	}
	av, err := NewAvgFromBounds(tab, b, RoundAnswer, "OPT-A")
	if err != nil {
		t.Fatal(err)
	}
	s0, err := NewSAP0FromBounds(tab, b, "SAP0")
	if err != nil {
		t.Fatal(err)
	}
	s1, err := NewSAP1FromBounds(tab, b, "SAP1")
	if err != nil {
		t.Fatal(err)
	}
	return []Estimator{av, s0, s1}
}

func sameAnswers(t *testing.T, a, b Estimator) {
	t.Helper()
	if a.N() != b.N() || a.Name() != b.Name() || a.StorageWords() != b.StorageWords() {
		t.Fatalf("metadata mismatch: %v vs %v", a, b)
	}
	for x := 0; x < a.N(); x++ {
		for y := x; y < a.N(); y++ {
			if g, w := b.Estimate(x, y), a.Estimate(x, y); !approxEq(g, w) {
				t.Fatalf("%s Estimate(%d,%d) = %g, want %g", a.Name(), x, y, g, w)
			}
		}
	}
}

func TestJSONRoundTrip(t *testing.T) {
	for _, h := range buildAll(t) {
		var buf bytes.Buffer
		if err := WriteJSON(&buf, h); err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		got, err := ReadJSON(&buf)
		if err != nil {
			t.Fatalf("%s: %v", h.Name(), err)
		}
		sameAnswers(t, h, got)
	}
}

func TestReadJSONRejectsBadKind(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader(`{"kind":"nope","n":3,"starts":[0],"series":[[1]]}`)); err == nil {
		t.Error("unknown kind accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"kind":"sap0","n":3,"starts":[0],"series":[[1]]}`)); err == nil {
		t.Error("wrong series count accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{broken`)); err == nil {
		t.Error("malformed JSON accepted")
	}
	if _, err := ReadJSON(strings.NewReader(`{"kind":"avg","n":3,"starts":[2],"series":[[1]]}`)); err == nil {
		t.Error("invalid bucketing accepted")
	}
}

func TestEncodeRejectsUnknownType(t *testing.T) {
	if _, err := Encode(fakeEstimator{}); err == nil {
		t.Error("unknown estimator type accepted")
	}
}

type fakeEstimator struct{}

func (fakeEstimator) Estimate(a, b int) float64 { return 0 }
func (fakeEstimator) N() int                    { return 1 }
func (fakeEstimator) StorageWords() int         { return 0 }
func (fakeEstimator) Name() string              { return "fake" }
