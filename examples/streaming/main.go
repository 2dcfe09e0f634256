// Streaming example: a range synopsis over a live feed of record
// insertions. Each record lands in an exact copy of the counts in O(1);
// the first query after a burst rebuilds the WAVE-RANGEOPT synopsis from
// that copy, so queries always reflect the latest data. The example also
// shows the advisor picking a method for the observed query workload.
package main

import (
	"fmt"
	"log"
	"math/rand"

	"rangeagg"
)

func main() {
	counts := rangeagg.PaperCounts()
	n := len(counts)

	dyn, err := rangeagg.NewDynamic(counts, 32)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("dynamic %s over %d values, publishing %d words\n\n",
		dyn.Name(), dyn.N(), dyn.StorageWords())

	// Mirror of the truth for error reporting.
	live := append([]int64(nil), counts...)
	exact := func(a, b int) int64 {
		var s int64
		for i := a; i <= b; i++ {
			s += live[i]
		}
		return s
	}

	rng := rand.New(rand.NewSource(42))
	fmt.Println("streaming 10000 records in bursts; full-domain tracking:")
	for burst := 1; burst <= 5; burst++ {
		for i := 0; i < 2000; i++ {
			v := rng.Intn(n)
			if err := dyn.Update(v, 1); err != nil {
				log.Fatal(err)
			}
			live[v]++
		}
		est := dyn.Estimate(0, n-1)
		truth := exact(0, n-1)
		fmt.Printf("  after %5d inserts: estimate %9.0f   exact %9d\n",
			burst*2000, est, truth)
	}

	// Mid-range queries after the stream.
	fmt.Println("\nrange queries against the final state:")
	for _, q := range []rangeagg.Range{{A: 5, B: 20}, {A: 40, B: 90}, {A: 100, B: 126}} {
		fmt.Printf("  s[%3d,%3d] ≈ %9.1f   exact %7d\n",
			q.A, q.B, dyn.Estimate(q.A, q.B), exact(q.A, q.B))
	}

	// The advisor, fed the actual workload, picks a static method for a
	// nightly materialization.
	workload := rangeagg.ShortRanges(n, 500, 16, 7)
	recs, err := rangeagg.Recommend(live, workload, 32, 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("\nadvisor ranking for the observed workload (32 words):")
	for i, r := range recs {
		if i == 5 {
			fmt.Printf("  … %d more\n", len(recs)-5)
			break
		}
		if r.Failed {
			fmt.Printf("  %-14s failed: %s\n", r.Method, r.Reason)
			continue
		}
		fmt.Printf("  %-14s RMS %8.2f  (%2d words, built in %v)\n",
			r.Method, r.RMS, r.StorageWords, r.BuildTime)
	}
}
