package method

// This file registers the wavelet family: TOPBB (largest Haar
// coefficients of the data, the classical heuristic of refs [11,17]),
// WAVE-RANGEOPT (range-optimal selection on the prefix-sum domain) and
// WAVE-AA2D (the paper's §3 two-dimensional construction over the virtual
// range-sum matrix). Coefficient synopses are not bucket partitions, so
// the coarsen-lift and merge paths do not apply; the one-dimensional
// members have exact O(log n)-per-update dynamic maintenance
// (internal/stream).

import (
	"rangeagg/internal/prefix"
	"rangeagg/internal/wavelet"
)

func init() {
	Register(Descriptor{
		ID:           WaveTopBB,
		Name:         "TOPBB",
		Family:       "wavelet",
		WordsPerUnit: 2,
		Caps:         PrefixDecomposable | Serializable | ErrorBounded,
		Build: func(_ *prefix.Table, counts []int64, opt Opts) (Estimator, error) {
			return wavelet.NewData(counts, opt.Units)
		},
		ErrorBound: errCumulative,
	})
	Register(Descriptor{
		ID:           WaveRangeOpt,
		Name:         "WAVE-RANGEOPT",
		Family:       "wavelet",
		WordsPerUnit: 2,
		Caps:         PrefixDecomposable | Serializable | ErrorBounded,
		Build: func(tab *prefix.Table, _ []int64, opt Opts) (Estimator, error) {
			return wavelet.NewRangeOpt(tab, opt.Units)
		},
		ErrorBound: errCumulative,
	})
	Register(Descriptor{
		ID:           WaveAA2D,
		Name:         "WAVE-AA2D",
		Family:       "wavelet",
		WordsPerUnit: 2,
		Caps:         TwoD | Serializable,
		Build: func(tab *prefix.Table, _ []int64, opt Opts) (Estimator, error) {
			return wavelet.NewAA2D(tab, opt.Units)
		},
	})
}
