package parallel

import (
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestForEachCoversAllIndices(t *testing.T) {
	defer SetWorkers(SetWorkers(8))
	for _, n := range []int{0, 1, 7, 100, 1000} {
		seen := make([]int32, n)
		ForEach(n, func(i int) { atomic.AddInt32(&seen[i], 1) })
		for i, c := range seen {
			if c != 1 {
				t.Fatalf("n=%d: index %d visited %d times", n, i, c)
			}
		}
	}
	requireIdle(t)
}

func TestForEachChunkDisjointCoverage(t *testing.T) {
	defer SetWorkers(SetWorkers(4))
	const n = 517
	seen := make([]int32, n)
	ForEachChunk(n, 13, func(lo, hi int) {
		if lo < 0 || hi > n || lo >= hi {
			t.Errorf("bad chunk [%d,%d)", lo, hi)
		}
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&seen[i], 1)
		}
	})
	for i, c := range seen {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
	requireIdle(t)
}

func TestNestedRegionsComplete(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	var total atomic.Int64
	ForEach(10, func(i int) {
		ForEach(10, func(j int) {
			total.Add(1)
		})
	})
	if total.Load() != 100 {
		t.Fatalf("nested total = %d, want 100", total.Load())
	}
	requireIdle(t)
}

func TestSetWorkers(t *testing.T) {
	prev := SetWorkers(5)
	if Workers() != 5 {
		t.Errorf("Workers() = %d, want 5", Workers())
	}
	SetWorkers(0)
	if Workers() != runtime.GOMAXPROCS(0) {
		t.Errorf("reset Workers() = %d, want GOMAXPROCS", Workers())
	}
	SetWorkers(prev)
}

func TestSerialWidthRunsInline(t *testing.T) {
	defer SetWorkers(SetWorkers(1))
	var count int // no atomics: width 1 must be strictly sequential
	ForEachChunk(100, 7, func(lo, hi int) { count += hi - lo })
	if count != 100 {
		t.Fatalf("count = %d", count)
	}
}

// goid returns the running goroutine's id, read from the header line
// runtime.Stack prints ("goroutine 7 [running]:").
func goid() string {
	var buf [64]byte
	return strings.Fields(string(buf[:runtime.Stack(buf[:], false)]))[1]
}

// ledger reads the pool's slot ledger in one locked step.
func ledger() (listed, live, waiting int) {
	mu.Lock()
	defer mu.Unlock()
	return len(handoff), helpers, blocked
}

// requireIdle fails unless the pool is back at rest: no region on the
// hand-off list (so no finished closure stays reachable), no helper and
// no blocked goroutine.
func requireIdle(t *testing.T) {
	t.Helper()
	if l, h, b := ledger(); l != 0 || h != 0 || b != 0 {
		t.Fatalf("pool not at rest after every region returned: %d listed, %d helpers, %d blocked", l, h, b)
	}
}

// TestInlineRegionGetsFreedSlot stages, with channels, a region that
// begins inline because another region holds the only helper slot, and
// then frees that slot from each side: the helper running out of
// chunks, and the owner blocking on its helper. Either way the inline
// region's second chunk must run on the freed slot while its first chunk
// is still running. A pool that gives out helpers only when a region
// starts leaves that first chunk waiting until its guard expires.
func TestInlineRegionGetsFreedSlot(t *testing.T) {
	for _, frees := range []string{"helper", "owner"} {
		t.Run(frees, func(t *testing.T) {
			defer SetWorkers(SetWorkers(2))
			held := make(chan struct{}, 2) // both chunks of region A run
			free := make(chan struct{})    // the freeing side returns
			hold := make(chan struct{})    // the other side returns
			aDone := make(chan struct{})
			go func() {
				defer close(aDone)
				owner := goid()
				ForEachChunk(2, 1, func(lo, hi int) {
					held <- struct{}{}
					if (goid() == owner) == (frees == "owner") {
						<-free
					} else {
						<-hold
					}
				})
			}()
			<-held
			<-held

			bFirst, bHelped := make(chan struct{}), make(chan struct{})
			bDone := make(chan bool)
			go func() {
				helped := true
				ForEachChunk(2, 1, func(lo, hi int) {
					if lo == 1 {
						close(bHelped)
						return
					}
					close(bFirst)
					select {
					case <-bHelped:
					case <-time.After(10 * time.Second):
						helped = false
					}
				})
				bDone <- helped
			}()
			<-bFirst
			if l, h, _ := ledger(); l != 1 || h != 1 {
				t.Fatalf("region B should begin inline and listed behind A's helper: %d listed, %d helpers", l, h)
			}
			close(free)
			if !<-bDone {
				t.Fatalf("region B's second chunk never ran while its first waited: the slot the %s freed did not reach it", frees)
			}
			close(hold)
			<-aDone
			requireIdle(t)
		})
	}
}

// TestNestedHelperBound runs three nested levels at width 3 and checks,
// every time a slot goes to a region, that the helpers number at most
// Workers()−1 plus one per goroutine blocked on its own helpers: the
// bound that keeps goroutines from multiplying per nesting level.
func TestNestedHelperBound(t *testing.T) {
	defer SetWorkers(SetWorkers(3))
	var assignments, over int
	mu.Lock()
	assigned = func() {
		assignments++
		if helpers > Workers()-1+blocked {
			over++
		}
	}
	mu.Unlock()
	defer func() {
		mu.Lock()
		assigned = nil
		mu.Unlock()
	}()
	const fan = 5
	var seen [fan * fan * fan]atomic.Int32
	var sink atomic.Int64
	ForEach(fan, func(i int) {
		ForEach(fan, func(j int) {
			ForEach(fan, func(k int) {
				s := 0
				for x := 0; x < 20000; x++ {
					s += x ^ k
				}
				sink.Add(int64(s))
				seen[(i*fan+j)*fan+k].Add(1)
			})
		})
	})
	for idx := range seen {
		if c := seen[idx].Load(); c != 1 {
			t.Fatalf("leaf %d ran %d times", idx, c)
		}
	}
	mu.Lock()
	a, o := assignments, over
	mu.Unlock()
	if a == 0 {
		t.Fatal("no slot was ever assigned at width 3")
	}
	if o != 0 {
		t.Fatalf("%d of %d slot assignments exceeded Workers()-1 plus the blocked goroutines", o, a)
	}
	requireIdle(t)
}
