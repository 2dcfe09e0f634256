package method

import (
	"encoding/json"
	"fmt"
	"io"

	"rangeagg/internal/histogram"
	"rangeagg/internal/prefix"
	"rangeagg/internal/segment"
)

// This file registers SEGMENTED: the composed synopsis that partitions
// the domain into contiguous segments, summarizes each independently,
// and distributes one global word budget across segments by marginal
// gain (internal/segment). It is a first-class family — mergeable,
// error-bounded, serializable — so the codec, WAL, engine, and serve
// layers pick it up with zero new dispatch. It is additionally the only
// registered method with a Rebuild hook: mutations confined to a value
// window reconstruct only the owning segments.

// segmentedOpts maps registry Opts onto segment build options. The word
// budget comes from BudgetWords when the caller sets it, otherwise from
// the standard Units accounting (WordsPerUnit 2, matching the inner
// average-histogram representation).
func segmentedOpts(opt Opts) (segment.BuildOpts, error) {
	pol, err := segment.ParsePolicy(opt.SegmentPolicy)
	if err != nil {
		return segment.BuildOpts{}, err
	}
	w := opt.BudgetWords
	if w <= 0 {
		w = 2 * opt.Units
	}
	return segment.BuildOpts{
		K:           opt.Segments,
		Policy:      pol,
		BudgetWords: w,
		Epsilon:     opt.Epsilon,
	}, nil
}

func asSegmented(e Estimator) (*segment.Segmented, error) {
	s, ok := e.(*segment.Segmented)
	if !ok {
		return nil, fmt.Errorf("method: %s (%T) is not a segmented synopsis", e.Name(), e)
	}
	return s, nil
}

func init() {
	Register(Descriptor{
		ID:           Segmented,
		Name:         "SEGMENTED",
		Family:       "segmented",
		WordsPerUnit: 2,
		// Not BucketBased: the coarsen-lift path would collapse the
		// per-segment structure; segmented scaling is the per-segment
		// approximate builder instead. Not Reoptimizable: the §5 passes
		// operate on one flat bucketing.
		Caps:          Mergeable | PrefixDecomposable | Serializable | ErrorBounded,
		PaperRounding: histogram.RoundNone,
		Build: func(tab *prefix.Table, counts []int64, opt Opts) (Estimator, error) {
			o, err := segmentedOpts(opt)
			if err != nil {
				return nil, err
			}
			return segment.Build(tab, counts, o)
		},
		Merge: func(a, b Estimator) (Estimator, error) {
			sa, err := asSegmented(a)
			if err != nil {
				return nil, err
			}
			sb, err := asSegmented(b)
			if err != nil {
				return nil, err
			}
			return segment.Merge(sa, sb)
		},
		ErrorBound: errCumulative,
		Rebuild: func(counts []int64, prev Estimator, lo, hi int, opt Opts) (Estimator, RebuildStats, error) {
			s, err := asSegmented(prev)
			if err != nil {
				return nil, RebuildStats{}, err
			}
			next, st, err := segment.Rebuild(counts, s, lo, hi, opt.Epsilon)
			return next, RebuildStats{Rebuilt: st.Rebuilt, Reused: st.Reused}, err
		},
	})
}

// segmentedWire is the JSON payload of the segmented family: the
// partition plus each segment's histogram in its own serialization
// form.
type segmentedWire struct {
	Label  string               `json:"label"`
	N      int                  `json:"n"`
	Starts []int                `json:"starts"`
	Segs   []*histogram.Encoded `json:"segs"`
}

func init() {
	RegisterFamily(FamilyCodec{
		Family: "segmented",
		// Probe before the wavelet and histogram families: a Segmented
		// synopsis satisfies the histogram estimator interface, so the
		// histogram family would otherwise claim (and fail to encode) it.
		Rank: -1,
		CanEncode: func(e Estimator) bool {
			_, ok := e.(*segment.Segmented)
			return ok
		},
		Encode: func(w io.Writer, e Estimator) error {
			s, err := asSegmented(e)
			if err != nil {
				return err
			}
			wire := segmentedWire{Label: s.Label, N: s.Domain, Starts: s.Starts,
				Segs: make([]*histogram.Encoded, len(s.Segs))}
			for i, seg := range s.Segs {
				enc, err := histogram.Encode(seg)
				if err != nil {
					return fmt.Errorf("method: encoding segment %d: %w", i, err)
				}
				wire.Segs[i] = enc
			}
			return json.NewEncoder(w).Encode(&wire)
		},
		Decode: func(r io.Reader) (Estimator, error) {
			var wire segmentedWire
			if err := json.NewDecoder(r).Decode(&wire); err != nil {
				return nil, fmt.Errorf("method: decoding segmented payload: %w", err)
			}
			segs := make([]*histogram.Avg, len(wire.Segs))
			for i, enc := range wire.Segs {
				if enc == nil {
					return nil, fmt.Errorf("method: segmented payload segment %d is empty", i)
				}
				est, err := histogram.Decode(enc)
				if err != nil {
					return nil, fmt.Errorf("method: decoding segment %d: %w", i, err)
				}
				avg, ok := est.(*histogram.Avg)
				if !ok {
					return nil, fmt.Errorf("method: segmented payload segment %d is %T, want an average histogram", i, est)
				}
				segs[i] = avg
			}
			return segment.New(wire.N, wire.Starts, segs, wire.Label)
		},
	})
}
