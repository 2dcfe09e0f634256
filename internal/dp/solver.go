package dp

import (
	"fmt"
	"math"

	"rangeagg/internal/parallel"
	"rangeagg/internal/prefix"
)

const inf = math.MaxFloat64

// rowKernel fills one contiguous span of a DP layer: for every cell
// i in [iLo, iHi) it must set cur[i] to the best cost of covering the
// first i values with exactly k buckets and choice[i] to the j achieving
// it (last bucket = [j, i−1]), scanning candidate boundaries j ascending
// over [jLo, min(i−1, jHi)] and reading the previous layer's row in prev.
//
// Kernels must preserve two invariants so that every kernel — serial,
// parallel, generic or specialized — produces bit-identical tables:
//
//  1. candidates are scanned in ascending j with a strict `c < best`
//     improvement test (first winner kept on ties), and
//  2. a candidate may be skipped only when prev[j] ≥ best, which is
//     admissible because bucket costs are non-negative: the candidate's
//     total prev[j]+cost can then never pass the strict test.
//
// Skip rule 2 also subsumes the infeasible-state check: infeasible prev
// entries hold +inf and are never evaluated.
type rowKernel func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32)

// chunkGrain is the number of DP cells a worker claims at a time. Cells
// have linearly growing cost in i, so dynamic chunking keeps the layer
// balanced; 32 cells amortize the atomic fetch without starving workers.
const chunkGrain = 32

// Stepper runs the interval dynamic program one layer at a time with
// two rolling 1-D rows, parallelizing each layer over the shared worker
// pool: every cell of layer k depends only on layer k−1, so the cells of
// a layer are embarrassingly parallel. Results are identical at any pool
// width because cells are assigned by index and each kernel call is
// deterministic. It is the one layer driver of this package: solveLayers
// runs its layers through it, and NewA0Stepper hands it to callers that
// read per-layer optima without knowing how many they need.
type Stepper struct {
	n, k      int
	kernel    rowKernel
	prev, cur []float64 // layers k and k+1 (in progress)
	scratch   []int32   // choice row for Step, whose callers never backtrack
}

func newStepper(n int, kernel rowKernel) *Stepper {
	s := &Stepper{n: n, kernel: kernel, prev: make([]float64, n+1), cur: make([]float64, n+1)}
	for i := 1; i <= n; i++ {
		s.prev[i] = inf
	}
	s.prev[0] = 0 // layer 0: zero buckets cover exactly zero values
	return s
}

// NewA0Stepper returns a Stepper over the A0 bucket cost of tab (the
// inlined a0Kernel, bit-identical to FusedA0Cost and A0Cost), for
// tab.N() ≥ 1.
func NewA0Stepper(tab *prefix.Table) *Stepper {
	return newStepper(tab.N(), a0Kernel(tab))
}

// Step computes the next layer and returns its optimum: the k-th call
// returns the best cost of covering all n values with exactly k
// buckets, for k ≤ n. The optima are not monotone in k for every cost;
// a caller that needs them so applies a running minimum.
func (s *Stepper) Step() float64 {
	if s.scratch == nil {
		s.scratch = make([]int32, s.n+1)
	}
	return s.step(s.scratch)
}

// step fills layer k+1 over the pool, recording its backtracking
// pointers in row (row[i] is the start of the last bucket of the best
// cover of the first i values), and returns its final cell.
func (s *Stepper) step(row []int32) float64 {
	s.k++
	k, n := s.k, s.n
	// Feasible window of the previous layer: layer 0 is feasible only
	// at j=0; layer k−1 ≥ 1 is feasible exactly on [k−1, n]. Scanning
	// only this window replaces the seed's linear skip over inf cells.
	jLo, jHi := k-1, n
	if k == 1 {
		jHi = 0
	}
	prev, cur := s.prev, s.cur
	for i := 0; i < k; i++ {
		cur[i] = inf
		row[i] = -1
	}
	parallel.ForEachChunk(n-k+1, chunkGrain, func(lo, hi int) { // cells i = k..n
		s.kernel(jLo, jHi, k+lo, k+hi, prev, cur, row)
	})
	s.prev, s.cur = cur, prev
	return cur[n]
}

// solveLayers is the shared driver behind every interval dynamic program
// in this package: the O(n²·B) DP through a Stepper, with a flattened
// int32 backtracking matrix instead of full (B+1)×(n+1) tables.
func solveLayers(n, maxBuckets int, kernel rowKernel) (starts []int, total float64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("dp: empty domain (n=%d)", n)
	}
	if maxBuckets <= 0 {
		return nil, 0, fmt.Errorf("dp: need at least one bucket, got %d", maxBuckets)
	}
	if maxBuckets > n {
		maxBuckets = n
	}
	s := newStepper(n, kernel)
	// choice[k*(n+1)+i] is the backtracking pointer of cell (k, i).
	choice := make([]int32, (maxBuckets+1)*(n+1))
	bestK, bestCost := 0, inf
	for k := 1; k <= maxBuckets; k++ {
		if c := s.step(choice[k*(n+1) : (k+1)*(n+1)]); c < bestCost {
			bestCost, bestK = c, k
		}
	}
	if bestK == 0 {
		return nil, 0, fmt.Errorf("dp: no feasible bucketing for n=%d B=%d", n, maxBuckets)
	}
	starts = make([]int, bestK)
	i := n
	for k := bestK; k >= 1; k-- {
		j := int(choice[k*(n+1)+i])
		starts[k-1] = j
		i = j
	}
	return starts, bestCost, nil
}

// closureKernel adapts an arbitrary CostFunc to a rowKernel. Specialized
// methods (SAP0, SAP1, A0, the weighted V-optimal family) bypass this via
// the inlined kernels in kernels.go; everything else (SAP2, PREFIX-OPT,
// external callers of Solve) pays one closure call per candidate.
func closureKernel(cost CostFunc) rowKernel {
	return func(jLo, jHi, iLo, iHi int, prev, cur []float64, choice []int32) {
		for i := iLo; i < iHi; i++ {
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
				c := ej + cost(j, i-1)
				if c < best {
					best, bestJ = c, int32(j)
				}
			}
			cur[i] = best
			choice[i] = bestJ
		}
	}
}

// Solve finds starts of the partition of [0,n) into at most maxBuckets
// non-empty contiguous buckets minimizing Σ cost(bucket), by the standard
// O(n²·B) interval dynamic program. The cost function must be
// non-negative (the pruning rule relies on it). Layers are parallelized
// over the shared worker pool; the result is identical at any pool width.
func Solve(n, maxBuckets int, cost CostFunc) (starts []int, total float64, err error) {
	return solveLayers(n, maxBuckets, closureKernel(cost))
}

// SolveReference is the seed implementation of Solve — full 2-D tables, a
// serial scan, one closure call per inner iteration, no pruning. It is
// retained verbatim as the correctness oracle for the equivalence
// property tests and as the baseline side of the construction benchmarks
// (BENCH_dp.json); new code should call Solve.
func SolveReference(n, maxBuckets int, cost CostFunc) (starts []int, total float64, err error) {
	if n <= 0 {
		return nil, 0, fmt.Errorf("dp: empty domain (n=%d)", n)
	}
	if maxBuckets <= 0 {
		return nil, 0, fmt.Errorf("dp: need at least one bucket, got %d", maxBuckets)
	}
	if maxBuckets > n {
		maxBuckets = n
	}
	e := make([][]float64, maxBuckets+1)
	choice := make([][]int, maxBuckets+1)
	for k := range e {
		e[k] = make([]float64, n+1)
		choice[k] = make([]int, n+1)
		for i := range e[k] {
			e[k][i] = inf
			choice[k][i] = -1
		}
	}
	e[0][0] = 0
	for k := 1; k <= maxBuckets; k++ {
		for i := k; i <= n; i++ {
			best := inf
			bestJ := -1
			for j := k - 1; j < i; j++ {
				if e[k-1][j] == inf {
					continue
				}
				c := e[k-1][j] + cost(j, i-1)
				if c < best {
					best, bestJ = c, j
				}
			}
			e[k][i] = best
			choice[k][i] = bestJ
		}
	}
	bestK, bestCost := 0, inf
	for k := 1; k <= maxBuckets; k++ {
		if e[k][n] < bestCost {
			bestCost, bestK = e[k][n], k
		}
	}
	if bestK == 0 {
		return nil, 0, fmt.Errorf("dp: no feasible bucketing for n=%d B=%d", n, maxBuckets)
	}
	starts = make([]int, bestK)
	i := n
	for k := bestK; k >= 1; k-- {
		j := choice[k][i]
		starts[k-1] = j
		i = j
	}
	return starts, bestCost, nil
}
