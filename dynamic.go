package rangeagg

import "fmt"

// Dynamic is a range synopsis over a changing distribution: point updates
// land in an exact copy of the counts, and the first query after them
// rebuilds the range-optimal wavelet synopsis (WAVE-RANGEOPT) from that
// copy. Every answer is therefore the one a fresh Build of the current
// counts gives. The copy costs O(n) memory, like the data itself;
// StorageWords reports the size of the published synopsis.
type Dynamic struct {
	counts []int64
	total  int64
	budget int
	snap   Synopsis // nil after an update, until the next read
}

// NewDynamic builds a dynamic synopsis over the initial distribution with
// the given published storage budget.
func NewDynamic(counts []int64, budgetWords int) (*Dynamic, error) {
	if budgetWords < 2 {
		return nil, fmt.Errorf("rangeagg: dynamic synopsis needs at least 2 words, got %d", budgetWords)
	}
	d := &Dynamic{counts: append([]int64(nil), counts...), budget: budgetWords}
	for _, c := range counts {
		d.total += c
	}
	if err := d.refresh(); err != nil {
		return nil, err
	}
	return d, nil
}

// refresh rebuilds the published synopsis from the current counts.
func (d *Dynamic) refresh() error {
	snap, err := Build(d.counts, Options{Method: WaveRangeOpt, BudgetWords: d.budget})
	if err != nil {
		return err
	}
	d.snap = snap
	return nil
}

// published returns the synopsis of the current counts. The rebuild
// cannot fail: NewDynamic built the same method and budget over counts
// that updates keep non-negative.
func (d *Dynamic) published() Synopsis {
	if d.snap == nil {
		if err := d.refresh(); err != nil {
			panic(err)
		}
	}
	return d.snap
}

// Update applies counts[value] += delta. It refuses a delta that would
// make the count negative.
func (d *Dynamic) Update(value int, delta int64) error {
	if value < 0 || value >= len(d.counts) {
		return fmt.Errorf("rangeagg: value %d outside domain [0,%d)", value, len(d.counts))
	}
	if d.counts[value]+delta < 0 {
		return fmt.Errorf("rangeagg: update of %d would make the count of value %d negative", delta, value)
	}
	d.counts[value] += delta
	d.total += delta
	d.snap = nil
	return nil
}

// Estimate answers the range query from the synopsis of the current
// counts, rebuilding it first if updates arrived since the last read.
func (d *Dynamic) Estimate(a, b int) float64 { return d.published().Estimate(a, b) }

// N returns the domain size.
func (d *Dynamic) N() int { return len(d.counts) }

// StorageWords reports the published synopsis size.
func (d *Dynamic) StorageWords() int { return d.published().StorageWords() }

// Name identifies the construction.
func (d *Dynamic) Name() string { return "WAVE-RANGEOPT(dyn)" }

// Total returns the current total record count.
func (d *Dynamic) Total() int64 { return d.total }
