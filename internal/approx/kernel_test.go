package approx

import (
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"

	"rangeagg/internal/dataset"
	"rangeagg/internal/dp"
	"rangeagg/internal/prefix"
)

// partitionBoth runs one A0 partition through the closure scan and
// through the A0 kernel and fails unless the starts, the total's bit
// pattern and every work counter agree. Most oracle values never reach
// the total, so it also runs one sparse DP pass each way and requires
// identical arenas: every evaluation's value, bit for bit, and its
// backtracking links.
func partitionBoth(t testing.TB, label string, counts []int64, b int, eps float64) {
	t.Helper()
	tab := prefix.NewTable(counts)
	n := tab.N()
	cost := dp.FusedA0Cost(tab)
	cs, ct, cst, cerr := partition(n, b, eps, cost, nil)
	ks, kt, kst, kerr := partition(n, b, eps, cost, newA0Kernel(tab))
	if (cerr == nil) != (kerr == nil) {
		t.Fatalf("%s: closure error %v, kernel error %v", label, cerr, kerr)
	}
	if !slices.Equal(cs, ks) {
		t.Fatalf("%s: kernel starts %v, closure starts %v", label, ks, cs)
	}
	if math.Float64bits(ct) != math.Float64bits(kt) {
		t.Fatalf("%s: kernel total %v (%#x), closure total %v (%#x)", label, kt, math.Float64bits(kt), ct, math.Float64bits(ct))
	}
	if cst != kst {
		t.Fatalf("%s: kernel counters %+v, closure counters %+v", label, kst, cst)
	}
	b = min(b, n)
	pass := func(a0 *a0Kernel) []node {
		p := &partitioner{n: n, b: b, cost: cost, a0: a0, layers: make([]layer, b), warm: make([]int, b+1), st: &stats{},
			delta: eps / float64(b), theta: eps * math.Max(ct, 1) / (4 * float64(b))}
		p.run()
		return p.arena
	}
	ca, ka := pass(nil), pass(newA0Kernel(tab))
	if len(ca) != len(ka) {
		t.Fatalf("%s: kernel pass made %d nodes, closure pass %d", label, len(ka), len(ca))
	}
	for x := range ca {
		c, k := ca[x], ka[x]
		if c.bound != k.bound || c.prev != k.prev || math.Float64bits(c.val) != math.Float64bits(k.val) {
			t.Fatalf("%s: node %d: kernel %+v, closure %+v", label, x, k, c)
		}
	}
}

// TestA0KernelMatchesClosure pins the A0 kernel to the closure scan on
// the shapes the serving benchmarks and the edge cases produce:
// identical starts, totals, work counters and oracle values.
func TestA0KernelMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	zipfTail := func(n int) []int64 {
		c := make([]int64, n)
		z := rand.NewZipf(rng, 1.2, 1, 1000)
		for i := range c {
			c[i] = int64(z.Uint64())
		}
		slices.SortFunc(c, func(a, b int64) int { return int(b - a) })
		return c
	}
	sparse := make([]int64, 3000) // a sparse 0/1 tail
	for i := range sparse {
		if rng.Intn(7) == 0 {
			sparse[i] = 1
		}
	}
	halfZero := zipfTail(2048)
	clear(halfZero[1024:])
	spike := make([]int64, 1500)
	spike[977] = 40000
	constant := make([]int64, 700)
	for i := range constant {
		constant[i] = 9
	}
	uniform := make([]int64, 1200)
	for i := range uniform {
		uniform[i] = int64(rng.Intn(50))
	}
	cases := []struct {
		name   string
		counts []int64
		b      int
	}{
		{"zipf", zipfTail(4096), 32},
		{"sparse-tail", sparse, 24},
		{"half-zero", halfZero, 32},
		{"spike", spike, 6},
		{"constant", constant, 8},
		{"uniform", uniform, 40},
		{"n=1", []int64{5}, 3},
		{"b>n", []int64{3, 1, 4, 1, 5, 9, 2}, 12},
		{"b=1", uniform[:300], 1},
	}
	for _, c := range cases {
		for _, eps := range []float64{0.05, 0.1, 0.5, 0.9} {
			partitionBoth(t, fmt.Sprintf("%s ε=%g", c.name, eps), c.counts, c.b, eps)
		}
	}
}

// FuzzA0KernelMatchesClosure checks the kernel against the closure scan
// on arbitrary short series, up to 16 buckets and ε in [0.05, 0.95].
// The bounds keep an input's work small: the singleton fallback recurses
// down the layers, so a scan can cost up to b times its candidates.
func FuzzA0KernelMatchesClosure(f *testing.F) {
	f.Add([]byte{0, 1, 0, 0, 1, 200, 3, 3, 3, 0, 0, 1}, uint8(4), uint8(0))
	f.Add([]byte{7}, uint8(2), uint8(9))
	f.Add([]byte{255, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 255}, uint8(3), uint8(255))
	f.Fuzz(func(t *testing.T, data []byte, b, e uint8) {
		if len(data) == 0 || len(data) > 256 {
			return
		}
		counts := make([]int64, len(data))
		for i, d := range data {
			counts[i] = int64(d) * int64(d) // squares stretch the value range
		}
		partitionBoth(t, "fuzz", counts, 1+int(b)%16, 0.05+0.9*float64(e)/255)
	})
}

// BenchmarkPartitionA0 times one A0 partition in the segmented builds'
// regime (an 8192-value zipf segment, 64 buckets, ε = 0.1) through the
// closure scan and through the A0 kernel.
func BenchmarkPartitionA0(b *testing.B) {
	const n, buckets, eps = 8192, 64, 0.1
	counts := zipfSegment(n)
	tab := prefix.NewTable(counts)
	cost := dp.FusedA0Cost(tab)
	for _, v := range []struct {
		name string
		a0   *a0Kernel
	}{{"closure", nil}, {"kernel", newA0Kernel(tab)}} {
		b.Run(v.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, _, _, err := partition(n, buckets, eps, cost, v.a0); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// zipfSegment returns the second of eight equi-width segments of the
// serving benchmark's data shape (zipf α = 1.2 over 8n values, head
// 1000): a sparse tail of mostly 0/1 counts.
func zipfSegment(n int) []int64 {
	d, err := dataset.Zipf(dataset.ZipfConfig{N: 8 * n, Alpha: 1.2, MaxCount: 1000, Seed: 1})
	if err != nil {
		panic(err)
	}
	return d.Counts[n : 2*n]
}
