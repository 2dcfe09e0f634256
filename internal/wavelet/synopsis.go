package wavelet

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"

	"rangeagg/internal/prefix"
)

// DataSynopsis is the classical wavelet summary over the count array
// itself: the paper's TOPBB baseline, after [11, 17]. It keeps the B
// largest-magnitude orthonormal Haar coefficients of A (zero-padded to a
// power of two) — the selection that is optimal for pointwise L2 but not
// for range queries. Storage: 2 words per coefficient.
type DataSynopsis struct {
	n      int // domain size (unpadded)
	pow    int // padded transform length
	coeffs []Coefficient
	lookup map[int]float64
	label  string
}

// NewData builds the TOPBB synopsis with b coefficients.
func NewData(counts []int64, b int) (*DataSynopsis, error) {
	n := len(counts)
	if n == 0 {
		return nil, fmt.Errorf("wavelet: empty data")
	}
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	data := make([]float64, n)
	for i, c := range counts {
		data[i] = float64(c)
	}
	padded := PadZero(data)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, false)
	return newDataFromCoeffs(n, len(padded), kept, "TOPBB"), nil
}

func newDataFromCoeffs(n, pow int, kept []Coefficient, label string) *DataSynopsis {
	s := &DataSynopsis{n: n, pow: pow, coeffs: kept, label: label,
		lookup: make(map[int]float64, len(kept))}
	for _, c := range kept {
		s.lookup[c.Index] = c.Value
	}
	return s
}

// N returns the domain size.
func (s *DataSynopsis) N() int { return s.n }

// Name identifies the construction.
func (s *DataSynopsis) Name() string { return s.label }

// StorageWords returns 2 words per retained coefficient.
func (s *DataSynopsis) StorageWords() int { return 2 * len(s.coeffs) }

// Coefficients returns the retained coefficients (sorted by index).
func (s *DataSynopsis) Coefficients() []Coefficient { return s.coeffs }

// Estimate answers the range query [a,b] in O(log N) (see rangeSum).
func (s *DataSynopsis) Estimate(a, b int) float64 {
	if a < 0 || b >= s.n || a > b {
		panic(fmt.Sprintf("wavelet: invalid range [%d,%d] for n=%d", a, b, s.n))
	}
	return s.rangeSum(a, b)
}

// CumEstimate returns the cumulative estimate Ĉ[t] (the reconstruction
// summed over [0, t)), making the synopsis prefix-decomposable for O(n)
// SSE evaluation.
func (s *DataSynopsis) CumEstimate(t int) float64 {
	if t <= 0 {
		return 0
	}
	// Every support ends before pow, so a longer prefix sums the same.
	return s.rangeSum(0, min(t-1, s.pow-1))
}

// rangeSum returns Σ_{i∈[a,b]} of the reconstruction, 0 ≤ a ≤ b < pow.
// A non-DC Haar vector whose support lies wholly inside or wholly
// outside [a,b] sums to exactly zero over it, so only the DC and, per
// level, the kept coefficients whose supports contain a or b
// contribute. They are added coarsest level first, a's before b's, which
// is ascending index order: the sum is bit-identical to the O(B) sum of
// c·BasisRangeSum over every kept coefficient in index order, whose
// other terms are all ±0.
func (s *DataSynopsis) rangeSum(a, b int) float64 {
	var sum float64
	if v, ok := s.lookup[0]; ok {
		sum += v * BasisRangeSum(s.pow, 0, a, b)
	}
	for length := s.pow; length > 1; length /= 2 {
		ka, kb := s.pow/length+a/length, s.pow/length+b/length
		if v, ok := s.lookup[ka]; ok {
			sum += v * BasisRangeSum(s.pow, ka, a, b)
		}
		if kb == ka {
			continue
		}
		if v, ok := s.lookup[kb]; ok {
			sum += v * BasisRangeSum(s.pow, kb, a, b)
		}
	}
	return sum
}

// PrefixSynopsis is the prefix-domain range-optimal wavelet summary: the B
// largest-magnitude non-DC Haar coefficients of the prefix-sum array
// P[0..n] (padded by repeating P[n]). A query is answered as a difference
// of two point reconstructions of P̂, each touching O(log N) coefficients.
// Storage: 2 words per coefficient.
type PrefixSynopsis struct {
	n      int // domain size; prefix array has n+1 entries
	pow    int
	coeffs []Coefficient
	lookup map[int]float64
	label  string
}

// NewRangeOpt builds the range-optimal wavelet synopsis with b
// coefficients from the data's prefix sums.
func NewRangeOpt(tab *prefix.Table, b int) (*PrefixSynopsis, error) {
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	n := tab.N()
	padded := PadRepeat(tab.P)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, true) // DC is free to drop: constant shifts cancel in ranges
	return newPrefixFromCoeffs(n, len(padded), kept, "WAVE-RANGEOPT"), nil
}

// NewPrefixTopB builds the heuristic that keeps the top-b coefficients of
// the prefix transform *including* the DC — provided as an ablation
// against NewRangeOpt's DC-skipping selection.
func NewPrefixTopB(tab *prefix.Table, b int) (*PrefixSynopsis, error) {
	if b <= 0 {
		return nil, fmt.Errorf("wavelet: need at least one coefficient, got %d", b)
	}
	n := tab.N()
	padded := PadRepeat(tab.P)
	coeffs, err := TransformPow2(padded)
	if err != nil {
		return nil, err
	}
	kept := TopB(coeffs, b, false)
	return newPrefixFromCoeffs(n, len(padded), kept, "WAVE-PREFIX-TOPB"), nil
}

func newPrefixFromCoeffs(n, pow int, kept []Coefficient, label string) *PrefixSynopsis {
	s := &PrefixSynopsis{n: n, pow: pow, coeffs: kept, label: label,
		lookup: make(map[int]float64, len(kept))}
	for _, c := range kept {
		s.lookup[c.Index] = c.Value
	}
	return s
}

// N returns the domain size.
func (s *PrefixSynopsis) N() int { return s.n }

// Name identifies the construction.
func (s *PrefixSynopsis) Name() string { return s.label }

// StorageWords returns 2 words per retained coefficient.
func (s *PrefixSynopsis) StorageWords() int { return 2 * len(s.coeffs) }

// Coefficients returns the retained coefficients (sorted by index).
func (s *PrefixSynopsis) Coefficients() []Coefficient { return s.coeffs }

// pointRecon reconstructs P̂[t] from the O(log N) coefficients on t's
// root-to-leaf path, without allocating.
func (s *PrefixSynopsis) pointRecon(t int) float64 {
	var sum float64
	if v, ok := s.lookup[0]; ok {
		sum += v * BasisAt(s.pow, 0, t)
	}
	for length := s.pow; length > 1; length /= 2 {
		k := s.pow/length + t/length
		if v, ok := s.lookup[k]; ok {
			sum += v * BasisAt(s.pow, k, t)
		}
	}
	return sum
}

// Estimate answers the range query [a,b] as P̂[b+1] − P̂[a], in
// O(log N) time.
func (s *PrefixSynopsis) Estimate(a, b int) float64 {
	if a < 0 || b >= s.n || a > b {
		panic(fmt.Sprintf("wavelet: invalid range [%d,%d] for n=%d", a, b, s.n))
	}
	return s.pointRecon(b+1) - s.pointRecon(a)
}

// CumEstimate returns Ĉ[t] = P̂[t] − P̂[0] (anchored so Ĉ[0] = 0, which
// changes no range answer — constant shifts cancel).
func (s *PrefixSynopsis) CumEstimate(t int) float64 {
	if t < 0 || t > s.n {
		panic(fmt.Sprintf("wavelet: cumulative position %d outside [0,%d]", t, s.n))
	}
	return s.pointRecon(t) - s.pointRecon(0)
}

// encodedSynopsis is the shared JSON wire form.
type encodedSynopsis struct {
	Kind   string        `json:"kind"` // "data", "prefix" or "aa2d"
	Label  string        `json:"label"`
	N      int           `json:"n"`
	Pow    int           `json:"pow"`
	Coeffs []Coefficient `json:"coeffs,omitempty"`
	// Pairs carries 2-D coefficients for the "aa2d" kind.
	Pairs []AACoefficient `json:"pairs,omitempty"`
}

// WriteJSON serializes a wavelet synopsis.
func WriteJSON(w io.Writer, s any) error {
	var enc encodedSynopsis
	switch v := s.(type) {
	case *DataSynopsis:
		enc = encodedSynopsis{Kind: "data", Label: v.label, N: v.n, Pow: v.pow, Coeffs: v.coeffs}
	case *PrefixSynopsis:
		enc = encodedSynopsis{Kind: "prefix", Label: v.label, N: v.n, Pow: v.pow, Coeffs: v.coeffs}
	case *AA2D:
		enc = encodedSynopsis{Kind: "aa2d", Label: v.label, N: v.n, Pow: v.pow, Pairs: v.coeffs}
	default:
		return fmt.Errorf("wavelet: cannot encode %T", s)
	}
	return json.NewEncoder(w).Encode(enc)
}

// ReadJSON deserializes a wavelet synopsis written by WriteJSON. The
// result is *DataSynopsis or *PrefixSynopsis.
func ReadJSON(r io.Reader) (any, error) {
	var enc encodedSynopsis
	if err := json.NewDecoder(r).Decode(&enc); err != nil {
		return nil, fmt.Errorf("wavelet: decoding JSON: %w", err)
	}
	if enc.N <= 0 || enc.Pow < enc.N || enc.Pow&(enc.Pow-1) != 0 {
		return nil, fmt.Errorf("wavelet: corrupt sizes n=%d pow=%d", enc.N, enc.Pow)
	}
	for _, c := range enc.Coeffs {
		if c.Index < 0 || c.Index >= enc.Pow {
			return nil, fmt.Errorf("wavelet: coefficient index %d outside transform of length %d", c.Index, enc.Pow)
		}
	}
	sort.Slice(enc.Coeffs, func(i, j int) bool { return enc.Coeffs[i].Index < enc.Coeffs[j].Index })
	for i := 1; i < len(enc.Coeffs); i++ {
		// Answers read each index once from the lookup map; a repeat
		// would also count twice in the storage words.
		if enc.Coeffs[i].Index == enc.Coeffs[i-1].Index {
			return nil, fmt.Errorf("wavelet: coefficient index %d repeated", enc.Coeffs[i].Index)
		}
	}
	switch enc.Kind {
	case "aa2d":
		for _, c := range enc.Pairs {
			if c.K < 0 || c.K >= enc.Pow || c.L < 0 || c.L >= enc.Pow {
				return nil, fmt.Errorf("wavelet: aa2d coefficient (%d,%d) outside transform of length %d", c.K, c.L, enc.Pow)
			}
		}
		return &AA2D{n: enc.N, pow: enc.Pow, coeffs: enc.Pairs, label: enc.Label}, nil
	case "data":
		return newDataFromCoeffs(enc.N, enc.Pow, enc.Coeffs, enc.Label), nil
	case "prefix":
		// Prefix transforms cover n+1 points.
		if enc.Pow < enc.N+1 {
			return nil, fmt.Errorf("wavelet: prefix transform length %d too small for n=%d", enc.Pow, enc.N)
		}
		return newPrefixFromCoeffs(enc.N, enc.Pow, enc.Coeffs, enc.Label), nil
	default:
		return nil, fmt.Errorf("wavelet: unknown kind %q", enc.Kind)
	}
}
