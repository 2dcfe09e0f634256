package histogram

import (
	"encoding/json"
	"fmt"
	"io"
)

// Estimator is the answering interface every histogram in this package
// satisfies.
type Estimator interface {
	// Estimate approximates s[a,b] for an inclusive range in [0, N).
	Estimate(a, b int) float64
	// N is the domain size.
	N() int
	// StorageWords is the paper's space accounting for the summary.
	StorageWords() int
	// Name identifies the construction.
	Name() string
}

var (
	_ Estimator = (*Avg)(nil)
	_ Estimator = (*SAP0)(nil)
	_ Estimator = (*SAP1)(nil)
	_ Estimator = (*SAP2)(nil)
)

// Encoded is the serialization form of the JSON codec.
type Encoded struct {
	Kind   string      `json:"kind"` // "avg", "sap0", "sap1"
	Label  string      `json:"label"`
	N      int         `json:"n"`
	Starts []int       `json:"starts"`
	Mode   int         `json:"mode,omitempty"`
	Series [][]float64 `json:"series"`
}

// Encode converts a histogram to its serialization form.
func Encode(e Estimator) (*Encoded, error) {
	switch h := e.(type) {
	case *Avg:
		return &Encoded{
			Kind: "avg", Label: h.Label, N: h.Buckets.N,
			Starts: h.Buckets.Starts, Mode: int(h.Mode),
			Series: [][]float64{h.Values},
		}, nil
	case *SAP0:
		return &Encoded{
			Kind: "sap0", Label: h.Label, N: h.Buckets.N,
			Starts: h.Buckets.Starts,
			Series: [][]float64{h.Suff, h.Pref},
		}, nil
	case *SAP1:
		return &Encoded{
			Kind: "sap1", Label: h.Label, N: h.Buckets.N,
			Starts: h.Buckets.Starts,
			Series: [][]float64{h.SuffSlope, h.SuffIntercept, h.PrefSlope, h.PrefIntercept},
		}, nil
	case *SAP2:
		return &Encoded{
			Kind: "sap2", Label: h.Label, N: h.Buckets.N,
			Starts: h.Buckets.Starts,
			Series: [][]float64{h.Suff2, h.Suff1, h.Suff0, h.Pref2, h.Pref1, h.Pref0},
		}, nil
	default:
		return nil, fmt.Errorf("histogram: cannot encode %T", e)
	}
}

// Decode reconstructs a histogram from its serialization form.
func Decode(enc *Encoded) (Estimator, error) {
	b, err := NewBucketing(enc.N, enc.Starts)
	if err != nil {
		return nil, err
	}
	need := func(k int) error {
		if len(enc.Series) != k {
			return fmt.Errorf("histogram: kind %q wants %d series, got %d", enc.Kind, k, len(enc.Series))
		}
		return nil
	}
	switch enc.Kind {
	case "avg":
		if err := need(1); err != nil {
			return nil, err
		}
		return NewAvg(b, enc.Series[0], Rounding(enc.Mode), enc.Label)
	case "sap0":
		if err := need(2); err != nil {
			return nil, err
		}
		return NewSAP0(b, enc.Series[0], enc.Series[1], enc.Label)
	case "sap1":
		if err := need(4); err != nil {
			return nil, err
		}
		return NewSAP1(b, enc.Series[0], enc.Series[1], enc.Series[2], enc.Series[3], enc.Label)
	case "sap2":
		if err := need(6); err != nil {
			return nil, err
		}
		return NewSAP2(b, enc.Series[0], enc.Series[1], enc.Series[2],
			enc.Series[3], enc.Series[4], enc.Series[5], enc.Label)
	default:
		return nil, fmt.Errorf("histogram: unknown kind %q", enc.Kind)
	}
}

// MarshalJSON / round trips via the default struct tags.

// WriteJSON serializes a histogram as JSON.
func WriteJSON(w io.Writer, e Estimator) error {
	enc, err := Encode(e)
	if err != nil {
		return err
	}
	return json.NewEncoder(w).Encode(enc)
}

// ReadJSON deserializes a histogram from JSON.
func ReadJSON(r io.Reader) (Estimator, error) {
	var enc Encoded
	if err := json.NewDecoder(r).Decode(&enc); err != nil {
		return nil, fmt.Errorf("histogram: decoding JSON: %w", err)
	}
	return Decode(&enc)
}
