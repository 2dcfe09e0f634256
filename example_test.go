package rangeagg_test

import (
	"fmt"
	"log"

	"rangeagg"
)

// The basic flow: build a range-optimal histogram over a distribution and
// answer range-sum queries.
func ExampleBuild() {
	// counts[i] = number of records with attribute value i.
	counts := []int64{100, 80, 60, 40, 20, 10, 5, 5, 5, 5, 2, 2, 2, 1, 1, 1}

	syn, err := rangeagg.Build(counts, rangeagg.Options{
		Method:      rangeagg.OptA, // the paper's range-optimal histogram
		BudgetWords: 8,             // 4 buckets
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s, %d words\n", syn.Name(), syn.StorageWords())
	fmt.Printf("s[0,15] ≈ %.0f\n", syn.Estimate(0, 15))
	fmt.Printf("s[0,3]  ≈ %.0f (exact 280)\n", syn.Estimate(0, 3))
	// Output:
	// OPT-A, 8 words
	// s[0,15] ≈ 339
	// s[0,3]  ≈ 280 (exact 280)
}

// Quality evaluation with the paper's metric and with explicit workloads.
func ExampleSSE() {
	counts := []int64{9, 9, 9, 1, 1, 1}
	good, _ := rangeagg.Build(counts, rangeagg.Options{Method: rangeagg.A0, BudgetWords: 4})
	naive, _ := rangeagg.Build(counts, rangeagg.Options{Method: rangeagg.Naive})
	fmt.Printf("A0 SSE    = %.0f\n", rangeagg.SSE(counts, good))
	fmt.Printf("NAIVE SSE = %.0f\n", rangeagg.SSE(counts, naive))
	// Output:
	// A0 SSE    = 0
	// NAIVE SSE = 832
}

// The engine substrate: ingest, synopses, exact and approximate answers.
func ExampleEngine() {
	eng, err := rangeagg.NewEngine("orders.amount", 8)
	if err != nil {
		log.Fatal(err)
	}
	if err := eng.Load([]int64{50, 30, 10, 5, 3, 1, 1, 0}); err != nil {
		log.Fatal(err)
	}
	// A0 stores true bucket averages, so whole-domain answers are exact.
	if err := eng.BuildSynopsis("h", rangeagg.Count, rangeagg.Options{
		Method: rangeagg.A0, BudgetWords: 6,
	}); err != nil {
		log.Fatal(err)
	}
	approx, _ := eng.Approx("h", 0, 7)
	fmt.Printf("exact %d, approx %.0f\n", eng.ExactCount(0, 7), approx)
	// Output:
	// exact 100, approx 100
}

// The 2-D extension: rectangle aggregates over a joint distribution.
func ExampleBuild2D() {
	counts := [][]int64{
		{10, 5, 0, 0},
		{5, 10, 5, 0},
		{0, 5, 10, 5},
		{0, 0, 5, 10},
	}
	syn, err := rangeagg.Build2D(counts, rangeagg.WaveRangeOpt2D, 16)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: whole grid ≈ %.0f (exact 70)\n",
		syn.Name(), syn.Estimate(rangeagg.Rect{R1: 0, C1: 0, R2: 3, C2: 3}))
	// Output:
	// WAVE-RANGEOPT-2D: whole grid ≈ 58 (exact 70)
}

// Dynamic maintenance: an update is O(1) on an exact copy of the counts,
// and the next read rebuilds WAVE-RANGEOPT, so answers are always current.
func ExampleNewDynamic() {
	counts := make([]int64, 15)
	d, err := rangeagg.NewDynamic(counts, 32) // enough for every coefficient: exact
	if err != nil {
		log.Fatal(err)
	}
	for v := 0; v < 15; v++ {
		if err := d.Update(v, int64(v)); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("total after updates: %d\n", d.Total())
	fmt.Printf("s[0,14] ≈ %.0f\n", d.Estimate(0, 14))
	// Output:
	// total after updates: 105
	// s[0,14] ≈ 105
}

// The advisor: rank methods on a live workload.
func ExampleRecommend() {
	counts := rangeagg.PaperCounts()
	workload := rangeagg.ShortRanges(len(counts), 200, 10, 7)
	recs, err := rangeagg.Recommend(counts, workload, 16, 1)
	if err != nil {
		log.Fatal(err)
	}
	// The winner is always a range-aware method on this workload.
	winner := recs[0]
	fmt.Printf("winner uses ≤ %d words and beats NAIVE\n", winner.StorageWords)
	for _, r := range recs {
		if r.Method == rangeagg.Naive && r.SSE < winner.SSE {
			fmt.Println("NAIVE won?!")
		}
	}
	// Output:
	// winner uses ≤ 16 words and beats NAIVE
}
