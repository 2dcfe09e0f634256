// Package dataset provides attribute-value distributions — the input to
// every synopsis in this repository — together with the synthetic
// generators used by the paper's experimental study and by the wider
// synopsis literature, and simple CSV/JSON persistence.
//
// A Distribution is the frequency vector of a single numeric attribute:
// element i holds the number of records whose attribute value equals i
// (after the usual discretization of the attribute domain). All counts are
// non-negative int64 values.
package dataset

import (
	"errors"
	"fmt"
	"math"
)

// Distribution is an attribute-value distribution: Counts[i] is the number
// of database records whose attribute value is i. Counts must be
// non-negative.
type Distribution struct {
	// Name identifies the dataset (used in reports and file headers).
	Name string
	// Counts holds the per-value frequencies.
	Counts []int64
}

// ErrEmpty is returned when a distribution has no values.
var ErrEmpty = errors.New("dataset: empty distribution")

// ErrNegative is returned when a distribution holds a negative count.
var ErrNegative = errors.New("dataset: negative count")

// New builds a distribution from counts, validating them.
func New(name string, counts []int64) (*Distribution, error) {
	d := &Distribution{Name: name, Counts: counts}
	if err := d.Validate(); err != nil {
		return nil, err
	}
	return d, nil
}

// Validate checks the structural invariants of the distribution.
func (d *Distribution) Validate() error {
	if len(d.Counts) == 0 {
		return ErrEmpty
	}
	for i, c := range d.Counts {
		if c < 0 {
			return fmt.Errorf("%w: index %d holds %d", ErrNegative, i, c)
		}
	}
	return nil
}

// N returns the domain size (number of distinct attribute values).
func (d *Distribution) N() int { return len(d.Counts) }

// Total returns the total number of records, Σ Counts[i].
func (d *Distribution) Total() int64 {
	var t int64
	for _, c := range d.Counts {
		t += c
	}
	return t
}

// Max returns the largest frequency.
func (d *Distribution) Max() int64 {
	var m int64
	for _, c := range d.Counts {
		if c > m {
			m = c
		}
	}
	return m
}

// Mean returns the average frequency.
func (d *Distribution) Mean() float64 {
	if len(d.Counts) == 0 {
		return 0
	}
	return float64(d.Total()) / float64(len(d.Counts))
}

// Variance returns the population variance of the frequencies.
func (d *Distribution) Variance() float64 {
	n := len(d.Counts)
	if n == 0 {
		return 0
	}
	mean := d.Mean()
	var ss float64
	for _, c := range d.Counts {
		dev := float64(c) - mean
		ss += dev * dev
	}
	return ss / float64(n)
}

// Skew returns a crude skew indicator: max frequency over mean frequency.
// It is 1 for a perfectly uniform distribution and grows with skew.
func (d *Distribution) Skew() float64 {
	mean := d.Mean()
	if mean == 0 {
		return 0
	}
	return float64(d.Max()) / mean
}

// RangeSum returns s[a,b] = Σ_{a≤i≤b} Counts[i] computed directly.
// It is the exact answer every synopsis approximates. Panics if the range
// is invalid; use Clamp for user input.
func (d *Distribution) RangeSum(a, b int) int64 {
	if a < 0 || b >= len(d.Counts) || a > b {
		panic(fmt.Sprintf("dataset: invalid range [%d,%d] for n=%d", a, b, len(d.Counts)))
	}
	var s int64
	for i := a; i <= b; i++ {
		s += d.Counts[i]
	}
	return s
}

// Clamp restricts a query range to the domain and reports whether anything
// remains of it.
func (d *Distribution) Clamp(a, b int) (int, int, bool) {
	if a < 0 {
		a = 0
	}
	if b >= len(d.Counts) {
		b = len(d.Counts) - 1
	}
	if a > b {
		return 0, 0, false
	}
	return a, b, true
}

// Clone returns a deep copy of the distribution.
func (d *Distribution) Clone() *Distribution {
	c := make([]int64, len(d.Counts))
	copy(c, d.Counts)
	return &Distribution{Name: d.Name, Counts: c}
}

// String implements fmt.Stringer with a short summary, not the raw counts.
func (d *Distribution) String() string {
	return fmt.Sprintf("%s{n=%d total=%d max=%d skew=%.2f}",
		d.Name, d.N(), d.Total(), d.Max(), d.Skew())
}

// checkFinite guards generator parameters.
func checkFinite(name string, v float64) error {
	if math.IsNaN(v) || math.IsInf(v, 0) {
		return fmt.Errorf("dataset: parameter %s is not finite", name)
	}
	return nil
}

// FromValues builds a distribution from raw attribute values (one entry
// per record): the domain is [min, max] shifted to start at 0, and the
// returned offset maps a raw value v to index v−offset. Useful for
// ingesting a real column dump.
func FromValues(name string, values []int64) (*Distribution, int64, error) {
	if len(values) == 0 {
		return nil, 0, ErrEmpty
	}
	lo, hi := values[0], values[0]
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	span := hi - lo + 1
	const maxDomain = 1 << 26
	if span > maxDomain {
		return nil, 0, fmt.Errorf("dataset: value span %d exceeds the %d-value domain limit; bucket the values first", span, maxDomain)
	}
	counts := make([]int64, span)
	for _, v := range values {
		counts[v-lo]++
	}
	d, err := New(name, counts)
	if err != nil {
		return nil, 0, err
	}
	return d, lo, nil
}
