package main

import (
	"crypto/sha256"
	"encoding/binary"
	"math"
	"math/rand"

	"rangeagg/internal/dataset"
)

// Shared workload shape. The domain is the size at which synopsis builds
// switch to their *-APPROX counterparts (build.DefaultApproxCutover is
// 32768), so setup pays the construction cost a real deployment pays.
const (
	domain    = 65536
	zipfAlpha = 1.2
	zipfMax   = 1000

	// The hot pool holds short ranges, picked with probability ∝
	// (hotOffset+i)^-hotSkew: the hot set fits the planner's 4096-entry
	// cache (about 7 in 8 lookups hit), and the offset keeps any single
	// range under 1% of the picks, so no handful of ranges decides a run.
	poolSize  = 20000
	poolMaxW  = 256
	hotSkew   = 1.5
	hotOffset = 64

	batchSize = 256

	// writeRate is the ingest-mixed open-loop writer's rate (inserts/s);
	// writeSkew is the zipf exponent of the inserted values.
	writeRate = 500
	writeSkew = 1.2
)

// Stream identifiers: every input stream gets its own generator, so
// adding draws to one stream never shifts another.
const (
	streamCounts = iota + 1
	streamPool
	streamHot
	streamScan
	streamWrites
)

func newRand(seed int64, stream int) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + int64(stream)))
}

// pointTolerances are the per-range relative error budgets of the hot
// pool: loose enough that most answers come from a synopsis, tight
// enough that some escalate to the finer one or the exact tables.
var pointTolerances = [...]float64{0.25, 0.5, 1.0}

// rangeQ is one range query with its error budget.
type rangeQ struct {
	A, B   int
	MaxErr float64
}

// genCounts is the data every workload serves: zipf(α=1.2) counts over
// the domain, randomly rounded at a fixed seed. The rounding noise is the
// whole tail at this scale, and synopses built on different draws of it
// differ enough to move routed relerr_p50 by a third from seed to seed,
// so the data stays put and the seed drives what clients do.
func genCounts() []int64 {
	d, err := dataset.Zipf(dataset.ZipfConfig{N: domain, Alpha: zipfAlpha, MaxCount: zipfMax, Seed: streamCounts})
	if err != nil {
		panic(err) // constant, valid configuration
	}
	return d.Counts
}

// prefixSums returns p with p[i] = Σ counts[0..i-1].
func prefixSums(counts []int64) []int64 {
	p := make([]int64, len(counts)+1)
	for i, c := range counts {
		p[i+1] = p[i] + c
	}
	return p
}

// genPool draws the hot pool: short ranges anywhere in the domain, each
// with its own budget relative to its exact answer.
func genPool(seed int64, prefix []int64) []rangeQ {
	rng := newRand(seed, streamPool)
	pool := make([]rangeQ, poolSize)
	for i := range pool {
		w := 1 + rng.Intn(poolMaxW)
		a := rng.Intn(domain - w + 1)
		b := a + w - 1
		exact := float64(prefix[b+1] - prefix[a])
		tol := pointTolerances[rng.Intn(len(pointTolerances))]
		pool[i] = rangeQ{A: a, B: b, MaxErr: tol * math.Max(exact, 1)}
	}
	return pool
}

// hotStream picks pool entries zipf-skewed by pool index.
type hotStream struct {
	pool []rangeQ
	z    *rand.Zipf
}

func newHotStream(seed int64, pool []rangeQ) *hotStream {
	return &hotStream{pool: pool, z: rand.NewZipf(newRand(seed, streamHot), hotSkew, hotOffset, uint64(len(pool)-1))}
}

func (h *hotStream) next() rangeQ { return h.pool[h.z.Uint64()] }

// scanStream draws wide ranges with uniform endpoints, fresh each time,
// so almost nothing repeats within the planner cache's reach.
type scanStream struct{ rng *rand.Rand }

func newScanStream(seed int64) *scanStream { return &scanStream{rng: newRand(seed, streamScan)} }

func (s *scanStream) next() [2]int {
	a, b := s.rng.Intn(domain), s.rng.Intn(domain)
	if a > b {
		a, b = b, a
	}
	return [2]int{a, b}
}

// writeStream draws zipf-skewed insert values.
type writeStream struct{ z *rand.Zipf }

func newWriteStream(seed int64) *writeStream {
	return &writeStream{z: rand.NewZipf(newRand(seed, streamWrites), writeSkew, 1, domain-1)}
}

func (w *writeStream) next() int { return int(w.z.Uint64()) }

// inputDigest hashes the counts, the hot pool and the first n draws of
// every stream; equal digests mean byte-identical inputs.
func inputDigest(seed int64, n int) [32]byte {
	h := sha256.New()
	put := func(v int64) {
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], uint64(v))
		h.Write(b[:])
	}
	counts := genCounts()
	for _, c := range counts {
		put(c)
	}
	pool := genPool(seed, prefixSums(counts))
	for _, q := range pool {
		put(int64(q.A))
		put(int64(q.B))
		put(int64(math.Float64bits(q.MaxErr)))
	}
	hot := newHotStream(seed, pool)
	scan := newScanStream(seed)
	writes := newWriteStream(seed)
	for i := 0; i < n; i++ {
		q := hot.next()
		put(int64(q.A))
		put(int64(q.B))
		put(int64(math.Float64bits(q.MaxErr)))
		r := scan.next()
		put(int64(r[0]))
		put(int64(r[1]))
		put(int64(writes.next()))
	}
	var sum [32]byte
	copy(sum[:], h.Sum(nil))
	return sum
}
