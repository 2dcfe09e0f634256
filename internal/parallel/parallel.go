// Package parallel provides the bounded worker pool shared by every
// concurrent construction path in this repository: the layer-parallel
// dynamic programs of internal/dp, the segment builds, the advisor's
// candidate sweep, the experiments fan-out, and the serving layer's
// snapshot builds and batch answers.
//
// The pool is a process-global budget of helper goroutines: Workers()−1
// of them (Workers() is GOMAXPROCS by default, overridable with
// SetWorkers or the RANGEAGG_WORKERS environment variable), the caller's
// own goroutine being the remaining worker. Helpers never block waiting
// for a slot: a region that finds the budget spent — including one
// nested inside another — starts inline and joins a hand-off list. A
// slot frees when its helper runs out of chunks, and one is lent for as
// long as a goroutine blocks waiting for its own helpers; either way it
// goes at once to the oldest region on the list. So nesting (a serving
// rebuild building a segmented synopsis whose segments and DP layers
// parallelize again) cannot deadlock, a core does not idle while a
// region that began inline still has chunks, and a slot is handed out
// only while the helpers number fewer than Workers()−1 plus one per
// blocked goroutine: the count grows with nesting depth, never by a
// factor of Workers() per level. A region leaves the list when its last
// chunk is claimed, so the list never keeps a finished closure alive.
//
// All helpers assign work by index, so callers that write results into
// per-index slots get deterministic, scheduling-independent output.
package parallel

import (
	"os"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"

	"rangeagg/internal/obs"
)

// Pool fan-out counters: how many parallel regions ran, how many of them
// began inline (pool exhausted or single-worker), and how many helper
// goroutines were spawned in total. Handles are resolved once; observing
// is one atomic add per region, off the per-chunk path.
var (
	poolRegions = obs.Default.Counter("rangeagg_pool_regions_total")
	poolInline  = obs.Default.Counter("rangeagg_pool_inline_total")
	poolWorkers = obs.Default.Counter("rangeagg_pool_workers_total")
)

// maxWorkers is the configured concurrency width (≥ 1).
var maxWorkers atomic.Int64

func init() {
	w := runtime.GOMAXPROCS(0)
	if v := os.Getenv("RANGEAGG_WORKERS"); v != "" {
		if n, err := strconv.Atoi(v); err == nil && n > 0 {
			w = n
		}
	}
	maxWorkers.Store(int64(w))
}

// Workers returns the current concurrency width.
func Workers() int { return int(maxWorkers.Load()) }

// SetWorkers sets the concurrency width and returns the previous value.
// n ≤ 0 resets to GOMAXPROCS. Safe for concurrent use; regions already
// running keep the helpers they have.
func SetWorkers(n int) int {
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return int(maxWorkers.Swap(int64(n)))
}

// The slot ledger. Everything below is guarded by mu.
var (
	mu sync.Mutex
	// handoff lists the regions still short of helpers, oldest first.
	// A region leaves it when its last chunk is claimed.
	handoff []*region
	// helpers counts live helper goroutines; blocked counts goroutines
	// waiting for their own region's helpers, each lending its slot.
	helpers, blocked int
	// assigned, when a test sets it, runs each time a slot goes to a
	// region.
	assigned func()
)

// budget is the number of helpers the pool may run now.
func budget() int { return Workers() - 1 + blocked }

// region is one ForEachChunk call. Chunks are claimed by index from
// next; listed mirrors membership of handoff so that claiming the last
// chunk takes mu only when there is an entry to remove.
type region struct {
	n, grain int
	fn       func(lo, hi int)
	next     atomic.Int64
	listed   atomic.Bool

	short   int           // helpers still wanted; under mu
	running int           // helpers assigned and not yet out of chunks; under mu
	wake    chan struct{} // closed when running drops to 0 while the owner waits
}

// drain claims and runs chunks until none is left.
func (r *region) drain() {
	for {
		lo := int(r.next.Add(int64(r.grain))) - r.grain
		if lo >= r.n {
			return
		}
		hi := lo + r.grain
		if hi >= r.n {
			hi = r.n
			if r.listed.Load() {
				mu.Lock()
				r.unlist()
				mu.Unlock()
			}
		}
		r.fn(lo, hi)
	}
}

// unlist removes r from the hand-off list if it is there. Callers hold
// mu.
func (r *region) unlist() {
	if !r.listed.Load() {
		return
	}
	r.listed.Store(false)
	for i, l := range handoff {
		if l == r {
			last := len(handoff) - 1
			copy(handoff[i:], handoff[i+1:])
			handoff[last] = nil // the backing array keeps no reference
			handoff = handoff[:last]
			return
		}
	}
}

// take assigns one more helper to r. Callers hold mu.
func (r *region) take() {
	r.running++
	if r.short--; r.short == 0 {
		r.unlist()
	}
	if assigned != nil {
		assigned()
	}
}

// oldest returns the oldest listed region, or nil. Callers hold mu.
func oldest() *region {
	if len(handoff) == 0 {
		return nil
	}
	return handoff[0]
}

// spawn starts helpers for listed regions while the budget allows.
// Callers hold mu.
func spawn() {
	for helpers < budget() {
		r := oldest()
		if r == nil {
			return
		}
		helpers++
		r.take()
		poolWorkers.Inc()
		go help(r)
	}
}

// help is a helper goroutine: it drains its region, then takes the
// oldest listed region while the budget allows, and retires when it
// does not or the list is empty.
func help(r *region) {
	for r != nil {
		r.drain()
		r = finish(r)
	}
}

// finish records that a helper ran out of chunks in r and returns the
// region its slot goes to next, or nil once the helper has retired.
func finish(r *region) *region {
	mu.Lock()
	defer mu.Unlock()
	if r.running--; r.running == 0 && r.wake != nil {
		close(r.wake)
	}
	if helpers <= budget() {
		if next := oldest(); next != nil {
			next.take()
			return next
		}
	}
	helpers--
	return nil
}

// wait returns once every helper of r ran out of chunks. If any is
// still running, the caller lends its slot while it blocks.
func (r *region) wait() {
	mu.Lock()
	r.unlist()
	if r.running == 0 {
		mu.Unlock()
		return
	}
	r.wake = make(chan struct{})
	blocked++
	spawn()
	mu.Unlock()
	<-r.wake
	mu.Lock()
	blocked--
	mu.Unlock()
}

// ForEachChunk runs fn over the index range [0, n) split into chunks of
// at most grain consecutive indices, distributing chunks dynamically over
// the pool. fn(lo, hi) must process indices [lo, hi). fn is called
// concurrently from multiple goroutines; distinct calls never overlap in
// index range. ForEachChunk returns when all indices are processed.
func ForEachChunk(n, grain int, fn func(lo, hi int)) {
	if n <= 0 {
		return
	}
	if grain <= 0 {
		grain = 1
	}
	r := &region{n: n, grain: grain, fn: fn}
	want := min(Workers(), (n+grain-1)/grain) - 1
	poolRegions.Inc()
	if want <= 0 {
		poolInline.Inc()
		r.drain()
		return
	}
	mu.Lock()
	got := min(want, max(budget()-helpers, 0))
	helpers += got
	r.short = want
	if got < want {
		r.listed.Store(true)
		handoff = append(handoff, r)
	}
	for i := 0; i < got; i++ {
		r.take()
	}
	mu.Unlock()
	if got == 0 {
		poolInline.Inc()
	}
	poolWorkers.Add(int64(got))
	for i := 0; i < got; i++ {
		go help(r)
	}
	r.drain()
	r.wait()
}

// ForEach runs fn for every index in [0, n), one index per task, over the
// pool. Use for coarse-grained tasks (building a whole synopsis); prefer
// ForEachChunk for fine-grained loops.
func ForEach(n int, fn func(i int)) {
	ForEachChunk(n, 1, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs heterogeneous tasks concurrently over the pool and returns when
// all have completed — the fork/join form of ForEach for a fixed set of
// different jobs (e.g. rebuilding a serving snapshot's prefix tables and
// synopses together).
func Do(fns ...func()) {
	ForEach(len(fns), func(i int) { fns[i]() })
}
