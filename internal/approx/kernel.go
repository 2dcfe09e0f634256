package approx

import (
	"math"

	"rangeagg/internal/prefix"
)

// This file holds the partitioner's A0 kernel: one oracle evaluation's
// candidate scan with the fused A0 cost computed directly, in place of a
// dp.FusedA0Cost closure call per candidate. The right end i is fixed
// within an evaluation, so its terms — the float64(n−i) suffix weight,
// P[i] and the cumulative moments through i — are read once per
// evaluation (a0Right); each candidate carries its left-end moments in
// its layer (a0Left), so the scan reads contiguous memory instead of
// four scattered table loads per candidate. The pruned scan, where
// nearly all cost evaluations happen, computes the cost inline; the warm
// start and the 2×best cutoff search call a0Right.cost.
//
// CORRECTNESS INVARIANT: both copies of the cost reproduce
// dp.FusedA0Cost — and through it the exact DP's a0Kernel in
// internal/dp — with the same floating-point operation order and the
// same clamps, and scan visits, prunes and counts candidates exactly as
// partitioner.scan does, so the kernel and closure paths return
// bit-identical partitions, totals and work counters
// (TestA0KernelMatchesClosure, FuzzA0KernelMatchesClosure). Do not
// "simplify" the algebra here without updating both sides.

// a0Kernel holds the prefix-moment slices the A0 cost reads.
type a0Kernel struct {
	n                     int
	p, cumP, cumP2, cumUP []float64
}

func newA0Kernel(tab *prefix.Table) *a0Kernel {
	mom := tab.Moments()
	return &a0Kernel{n: tab.N(), p: mom.P, cumP: mom.CumP, cumP2: mom.CumP2, cumUP: mom.CumUP}
}

// a0Left is the left-end moments of buckets starting at j: P[j] and the
// cumulative ΣP, ΣP², Σu·P over [0, j).
type a0Left struct{ p, cumP, cumP2, cumUP float64 }

func (k *a0Kernel) left(j int32) a0Left {
	return a0Left{k.p[j], k.cumP[j], k.cumP2[j], k.cumUP[j]}
}

// a0Right is the right-end terms of buckets [j, i−1]: the suffix weight
// n−1−r = n−i, P[i], and the cumulative moments over [0, i], the end of
// the fit's window [j, i].
type a0Right struct {
	i                        int
	w, p, cumP, cumP2, cumUP float64
}

// scan is partitioner.scan with the A0 cost computed directly: the warm
// start, the 2×best cutoff search and the pruned scan, probe for probe.
func (k *a0Kernel) scan(prev *layer, hi, i, warm int, st *stats) (float64, int) {
	r := a0Right{i: i, w: float64(k.n - i), p: k.p[i], cumP: k.cumP[i+1], cumP2: k.cumP2[i+1], cumUP: k.cumUP[i+1]}
	pos, val, left := prev.pos[:hi+1], prev.val[:hi+1], prev.left[:hi+1]
	var evals, pruned int64
	best, bestCand := math.Inf(1), -1
	if warm >= 0 && warm <= hi {
		if val[warm] >= best {
			pruned++
		} else {
			evals++
			if t := val[warm] + r.cost(pos[warm], &left[warm]); t < best {
				best, bestCand = t, warm
			}
		}
	}
	lo := 0
	if bestCand >= 0 && hi > 8 {
		// sort.Search(hi, cost < 2·best), without the closure.
		cut := 2 * best
		a, b := 0, hi
		for a < b {
			h := int(uint(a+b) >> 1)
			evals++
			if r.cost(pos[h], &left[h]) < cut {
				b = h
			} else {
				a = h + 1
			}
		}
		lo = a
		pruned += int64(lo)
	}
	for c := lo; c <= hi; c++ {
		v := val[c]
		if v >= best {
			pruned += int64(hi - c + 1)
			break
		}
		evals++
		// r.cost(pos[c], &left[c]), inline.
		j := pos[c]
		l := &left[c]
		m := float64(i - int(j))
		pl := l.p
		avg := (r.p - pl) / m
		sum := r.cumP - l.cumP
		sum2 := r.cumP2 - l.cumP2
		sumUP := r.cumUP - l.cumUP
		cnt := m + 1
		sumQ := sum - cnt*pl
		sumQ2 := sum2 - 2*pl*sum + cnt*pl*pl
		sumD := m * (m + 1) / 2
		sumD2 := m * (m + 1) * (2*m + 1) / 6
		sumDP := sumUP - float64(j)*sum
		sumQD := sumDP - pl*sumD
		sumE := sumQ - avg*sumD
		sumE2 := sumQ2 - 2*avg*sumQD + avg*avg*sumD2
		if sumE2 < 0 {
			sumE2 = 0
		}
		intra := (m + 1) * sumE2
		intra -= sumE * sumE
		if intra < 0 {
			intra = 0
		}
		if t := v + (intra + sumE2*r.w + sumE2*float64(j)); t < best {
			best, bestCand = t, c
		}
	}
	st.costEvals += evals
	st.pruned += pruned
	return best, bestCand
}

// cost is dp.FusedA0Cost(j, i−1): IntraCost + Σe'²·(n−1−r) + Σe'²·l
// over the average fit's window [j, i].
func (r *a0Right) cost(j int32, l *a0Left) float64 {
	m := float64(r.i - int(j))
	pl := l.p
	avg := (r.p - pl) / m
	sum := r.cumP - l.cumP
	sum2 := r.cumP2 - l.cumP2
	sumUP := r.cumUP - l.cumUP
	cnt := m + 1
	sumQ := sum - cnt*pl
	sumQ2 := sum2 - 2*pl*sum + cnt*pl*pl
	sumD := m * (m + 1) / 2
	sumD2 := m * (m + 1) * (2*m + 1) / 6
	sumDP := sumUP - float64(j)*sum
	sumQD := sumDP - pl*sumD
	sumE := sumQ - avg*sumD
	sumE2 := sumQ2 - 2*avg*sumQD + avg*avg*sumD2
	if sumE2 < 0 {
		sumE2 = 0
	}
	intra := (m + 1) * sumE2
	intra -= sumE * sumE
	if intra < 0 {
		intra = 0
	}
	return intra + sumE2*r.w + sumE2*float64(j)
}
