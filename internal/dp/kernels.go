package dp

import (
	"rangeagg/internal/prefix"
)

// This file holds the specialized DP inner loops for the construction
// hot paths: SAP0 (Theorem 6), SAP1 (Theorem 8), A0, and the weighted
// V-optimal family (POINT-OPT / V-OPT). Each kernel inlines its cost
// function into the candidate scan, reading the precomputed prefix-moment
// slices (prefix.Table.Moments) directly instead of paying a closure and
// several method calls per candidate, and hoists every r-dependent term —
// the float64(n−1−r) suffix weight and the window boundary moments — out
// of the inner loop (r = i−1 is fixed per cell; only l = j varies).
//
// CORRECTNESS INVARIANT: every arithmetic expression below reproduces the
// corresponding prefix.Table method (AvgFit, IntraCost, VarSumP,
// LinFitRSS, the weighted-variance closure) with the same floating-point
// operation order, so kernel and closure paths produce bit-identical DP
// tables — the equivalence property tests enforce this against
// SolveReference. Do not "simplify" the algebra here without updating
// both sides.

// sap0Kernel: cost(l,r) = IntraCost + SuffixVar·(n−1−r) + PrefixVar·l.
func sap0Kernel(tab *prefix.Table) rowKernel {
	mom := tab.Moments()
	p, cumP, cumP2, cumUP := mom.P, mom.CumP, mom.CumP2, mom.CumUP
	n := tab.N()
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
			// Bucket [j, i−1]: r = i−1. Hoisted r-dependent terms:
			w := float64(n - i) // = float64(n−1−r)
			pI := p[i]
			cpI1, cp2I1, cupI1 := cumP[i+1], cumP2[i+1], cumUP[i+1] // windows ending at r+1 = i
			cpI, cp2I := cumP[i], cumP2[i]                          // suffix window ends at r = i−1
			jMax := i - 1
			if jMax > jHi {
				jMax = jHi
			}
			best, bestJ := inf, int32(-1)
			for j := jLo; j <= jMax; j++ {
				ej := prev[j]
				if ej >= best {
					continue // cost ≥ 0 ⇒ ej+cost can't beat best
				}
				m := float64(i - j)
				pl := p[j]
				// --- AvgFit(j, i−1) over window [j, i] ---
				avg := (pI - pl) / m
				sum := cpI1 - cumP[j]
				sum2 := cp2I1 - cumP2[j]
				sumUP := cupI1 - cumUP[j]
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
				// --- IntraCost ---
				intra := (m + 1) * sumE2
				intra -= sumE * sumE
				if intra < 0 {
					intra = 0
				}
				// --- SuffixVar = VarSumP(j, i−1) ---
				s1 := cpI - cumP[j]
				s2 := cp2I - cumP2[j]
				sufVar := s2 - s1*s1/m
				if sufVar < 0 {
					sufVar = 0
				}
				// --- PrefixVar = VarSumP(j+1, i) ---
				s1p := cpI1 - cumP[j+1]
				s2p := cp2I1 - cumP2[j+1]
				preVar := s2p - s1p*s1p/m
				if preVar < 0 {
					preVar = 0
				}
				c := ej + (intra + sufVar*w + preVar*float64(j))
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// sap1Kernel: cost(l,r) = IntraCost + SuffixRSS·(n−1−r) + PrefixRSS·l,
// with SuffixRSS/PrefixRSS the linear-fit residuals of P over [l,r] and
// [l+1,r+1] (LinFitRSS).
func sap1Kernel(tab *prefix.Table) rowKernel {
	mom := tab.Moments()
	p, cumP, cumP2, cumUP := mom.P, mom.CumP, mom.CumP2, mom.CumUP
	n := tab.N()
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
			w := float64(n - i)
			pI := p[i]
			cpI1, cp2I1, cupI1 := cumP[i+1], cumP2[i+1], cumUP[i+1]
			cpI, cp2I, cupI := cumP[i], cumP2[i], cumUP[i]
			jMax := i - 1
			if jMax > jHi {
				jMax = jHi
			}
			best, bestJ := inf, int32(-1)
			for j := jLo; j <= jMax; j++ {
				ej := prev[j]
				if ej >= best {
					continue
				}
				mi := i - j // integer bucket width
				m := float64(mi)
				pl := p[j]
				// --- AvgFit / IntraCost over window [j, i] ---
				avg := (pI - pl) / m
				sum := cpI1 - cumP[j]
				sum2 := cp2I1 - cumP2[j]
				sumUP := cupI1 - cumUP[j]
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
				var sufRSS, preRSS float64
				if mi > 2 { // LinFitRSS interpolates ≤2 points exactly
					mf := m
					sxx := mf * (mf*mf - 1) / 12
					// --- SuffixRSS = LinFitRSS(j, i−1) ---
					sSum := cpI - cumP[j]
					sSum2 := cp2I - cumP2[j]
					sSumUP := cupI - cumUP[j]
					syy := sSum2 - sSum*sSum/m
					if syy < 0 {
						syy = 0
					}
					meanU := float64(j+i-1) / 2
					sxy := sSumUP - meanU*sSum
					sufRSS = syy - sxy*sxy/sxx
					if sufRSS < 0 {
						sufRSS = 0
					}
					// --- PrefixRSS = LinFitRSS(j+1, i) ---
					pSum := cpI1 - cumP[j+1]
					pSum2 := cp2I1 - cumP2[j+1]
					pSumUP := cupI1 - cumUP[j+1]
					pyy := pSum2 - pSum*pSum/m
					if pyy < 0 {
						pyy = 0
					}
					meanUp := float64(j+1+i) / 2
					pxy := pSumUP - meanUp*pSum
					preRSS = pyy - pxy*pxy/sxx
					if preRSS < 0 {
						preRSS = 0
					}
				}
				c := ej + (intra + sufRSS*w + preRSS*float64(j))
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// a0Kernel: cost(l,r) = IntraCost + Σe'²·(n−1−r) + Σe'²·l, with Σe'² the
// second moment of the average fit's local prefix errors (AvgFit).
func a0Kernel(tab *prefix.Table) rowKernel {
	mom := tab.Moments()
	p, cumP, cumP2, cumUP := mom.P, mom.CumP, mom.CumP2, mom.CumUP
	n := tab.N()
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
			w := float64(n - i)
			pI := p[i]
			cpI1, cp2I1, cupI1 := cumP[i+1], cumP2[i+1], cumUP[i+1]
			jMax := i - 1
			if jMax > jHi {
				jMax = jHi
			}
			best, bestJ := inf, int32(-1)
			for j := jLo; j <= jMax; j++ {
				ej := prev[j]
				if ej >= best {
					continue
				}
				m := float64(i - j)
				pl := p[j]
				avg := (pI - pl) / m
				sum := cpI1 - cumP[j]
				sum2 := cp2I1 - cumP2[j]
				sumUP := cupI1 - cumUP[j]
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
				c := ej + (intra + sumE2*w + sumE2*float64(j))
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// weightedKernel: the weighted V-optimal cost (POINT-OPT / V-OPT) over
// precomputed Σw, Σw·A, Σw·A² prefix tables: weighted variance of the
// bucket, zero for zero-weight buckets.
func weightedKernel(cw, cwa, cwa2 []float64) rowKernel {
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
			cwI, cwaI, cwa2I := cw[i], cwa[i], cwa2[i] // r+1 = i
			jMax := i - 1
			if jMax > jHi {
				jMax = jHi
			}
			best, bestJ := inf, int32(-1)
			for j := jLo; j <= jMax; j++ {
				ej := prev[j]
				if ej >= best {
					continue
				}
				var cost float64
				if sw := cwI - cw[j]; sw != 0 {
					swa := cwaI - cwa[j]
					swa2 := cwa2I - cwa2[j]
					cost = swa2 - swa*swa/sw
					if cost < 0 {
						cost = 0
					}
				}
				c := ej + cost
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// Closure forms of the specialized costs, retained for the equivalence
// property tests (they drive SolveReference against the kernels above)
// and for external callers that need the raw per-bucket cost.

// SAP0Cost returns the SAP0 per-bucket cost function of Theorem 6.
func SAP0Cost(tab *prefix.Table) CostFunc {
	n := tab.N()
	return func(l, r int) float64 {
		return tab.IntraCost(l, r) +
			tab.SuffixVar(l, r)*float64(n-1-r) +
			tab.PrefixVar(l, r)*float64(l)
	}
}

// SAP1Cost returns the SAP1 per-bucket cost function of Theorem 8.
func SAP1Cost(tab *prefix.Table) CostFunc {
	n := tab.N()
	return func(l, r int) float64 {
		return tab.IntraCost(l, r) +
			tab.SuffixRSS(l, r)*float64(n-1-r) +
			tab.PrefixRSS(l, r)*float64(l)
	}
}

// A0Cost returns the A0 per-bucket cost function (cross term ignored).
func A0Cost(tab *prefix.Table) CostFunc {
	n := tab.N()
	return func(l, r int) float64 {
		_, _, sumE2 := tab.AvgFit(l, r)
		return tab.IntraCost(l, r) + sumE2*float64(n-1-r) + sumE2*float64(l)
	}
}

// Fused closure forms of the hottest costs. The approximate construction
// path (internal/approx) evaluates costs point-wise — one (l,r) pair per
// oracle probe instead of a whole DP row — so it cannot amortize the
// kernel's row-level hoisting, and the method-call closures above cost
// several prefix.Table calls per evaluation. These closures read the raw
// moment slices directly, replicating the kernels' algebra (same
// floating-point operation order, same clamps), and are what the sparse
// DP spends nearly all of its time in at n = 10⁶.

// FusedSAP0Cost returns the SAP0 per-bucket cost of Theorem 6, computed
// with sap0Kernel's fused moment algebra. Values match SAP0Cost.
func FusedSAP0Cost(tab *prefix.Table) CostFunc {
	mom := tab.Moments()
	p, cumP, cumP2, cumUP := mom.P, mom.CumP, mom.CumP2, mom.CumUP
	n := tab.N()
	return func(l, r int) float64 {
		i, j := r+1, l
		w := float64(n - i)
		m := float64(i - j)
		pl := p[j]
		// --- AvgFit(j, i−1) over window [j, i] ---
		avg := (p[i] - pl) / m
		sum := cumP[i+1] - cumP[j]
		sum2 := cumP2[i+1] - cumP2[j]
		sumUP := cumUP[i+1] - cumUP[j]
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
		// --- SuffixVar = VarSumP(j, i−1) ---
		s1 := cumP[i] - cumP[j]
		s2 := cumP2[i] - cumP2[j]
		sufVar := s2 - s1*s1/m
		if sufVar < 0 {
			sufVar = 0
		}
		// --- PrefixVar = VarSumP(j+1, i) ---
		s1p := cumP[i+1] - cumP[j+1]
		s2p := cumP2[i+1] - cumP2[j+1]
		preVar := s2p - s1p*s1p/m
		if preVar < 0 {
			preVar = 0
		}
		return intra + sufVar*w + preVar*float64(j)
	}
}

// FusedA0Cost returns the A0 per-bucket cost (cross term ignored),
// computed with a0Kernel's fused moment algebra. Values match A0Cost.
// internal/approx's A0 kernel repeats this algebra inline, bit for bit
// (its TestA0KernelMatchesClosure compares the two).
func FusedA0Cost(tab *prefix.Table) CostFunc {
	mom := tab.Moments()
	p, cumP, cumP2, cumUP := mom.P, mom.CumP, mom.CumP2, mom.CumUP
	n := tab.N()
	return func(l, r int) float64 {
		i, j := r+1, l
		w := float64(n - i)
		m := float64(i - j)
		pl := p[j]
		avg := (p[i] - pl) / m
		sum := cumP[i+1] - cumP[j]
		sum2 := cumP2[i+1] - cumP2[j]
		sumUP := cumUP[i+1] - cumUP[j]
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
		return intra + sumE2*w + sumE2*float64(j)
	}
}

// WeightedVarCost returns the weighted V-optimal per-bucket cost (the
// weighted variance of [l,r]) over tables from WeightedMomentTables.
func WeightedVarCost(cw, cwa, cwa2 []float64) CostFunc {
	return weightedCost(cw, cwa, cwa2)
}

// weightedCost returns the weighted V-optimal closure over the same
// moment tables the kernel reads.
func weightedCost(cw, cwa, cwa2 []float64) CostFunc {
	return func(l, r int) float64 {
		sw := cw[r+1] - cw[l]
		swa := cwa[r+1] - cwa[l]
		swa2 := cwa2[r+1] - cwa2[l]
		if sw == 0 {
			return 0
		}
		c := swa2 - swa*swa/sw
		if c < 0 {
			c = 0
		}
		return c
	}
}
