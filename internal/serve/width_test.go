package serve

import (
	"bytes"
	"strings"
	"testing"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/parallel"
	"rangeagg/internal/segment"
)

// TestColdStartIdenticalAcrossPoolWidths builds one node's first
// snapshot at pool widths 1 and 2 and requires byte-identical published
// estimators. A lowered approx cutover sends the A0 spec through
// A0-APPROX, and the SEGMENTED spec's segments are wider than the
// per-segment exact cutover, so they take the approximate partitioner
// after the allocator stepped their curves. At width 2 the slot hand-off
// moves helpers between the two specs' nested regions.
func TestColdStartIdenticalAcrossPoolWidths(t *testing.T) {
	const n = 4 * 2100 // four segments, each past the 2048-value exact cutover
	counts := make([]int64, n)
	for i := range counts {
		counts[i] = int64(1000/(1+i%700)) + int64((i*31)%17)
	}
	specs := []engine.SynopsisSpec{
		{Name: "coarse", Metric: engine.Count, Options: build.Options{Method: build.A0, BudgetWords: 32}},
		{Name: "fine", Metric: engine.Count, Options: build.Options{Method: build.Segmented, BudgetWords: 96, Segments: 4}},
	}
	var blobs [2][][]byte
	for wi, w := range []int{1, 2} {
		eng, err := engine.New("width", n)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Load(counts); err != nil {
			t.Fatal(err)
		}
		eng.SetApproxCutover(4096)
		prev := parallel.SetWorkers(w)
		s, err := New(eng, specs, Config{Debounce: time.Hour})
		parallel.SetWorkers(prev)
		if err != nil {
			t.Fatal(err)
		}
		for _, sp := range specs {
			syn, err := s.Snapshot().Synopsis(sp.Name)
			if err != nil {
				t.Fatal(err)
			}
			var buf bytes.Buffer
			if err := codec.Write(&buf, syn.Est); err != nil {
				t.Fatal(err)
			}
			blobs[wi] = append(blobs[wi], buf.Bytes())
			if seg, ok := syn.Est.(*segment.Segmented); ok {
				for i, h := range seg.Segs {
					if !strings.Contains(h.Label, "APPROX") {
						t.Fatalf("segment %d built by %q, want the approximate partitioner", i, h.Label)
					}
				}
			} else if !strings.Contains(syn.Est.Name(), "A0-APPROX") {
				t.Fatalf("%s built by %q, want A0-APPROX", sp.Name, syn.Est.Name())
			}
		}
		s.Close()
	}
	for i, sp := range specs {
		if !bytes.Equal(blobs[0][i], blobs[1][i]) {
			t.Errorf("%s: the estimator published at width 2 differs from the one at width 1", sp.Name)
		}
	}
}
