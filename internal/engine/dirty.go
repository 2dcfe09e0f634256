package engine

import (
	"time"

	"rangeagg/internal/build"
)

// Watch is a dirty window the engine keeps for a consumer of its data:
// a serving layer, or one registered engine synopsis (BuildSynopsis).
// Every mutation marks every registered watch, so a consumer never
// works out a write's span itself, and two consumers never take each
// other's marks. Its fields are guarded by the engine's lock.
type Watch struct {
	e   *Engine
	win build.Window
	// dirtyAt is when the oldest mark not yet captured landed (unix
	// nanos, 0 = none): the consumer's staleness clock.
	dirtyAt int64
}

// Capture is one coherent read of the engine for a consumer's build:
// the COUNT series, its data version, the window of mutations since the
// previous capture and the approx cutover full builds use, all taken
// under one lock.
type Capture struct {
	Counts  []int64
	Version int64
	Window  build.Window
	Cutover int
	dirtyAt int64
}

// Watch registers a new consumer window, clean as of now.
func (e *Engine) Watch() *Watch {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.watch()
}

// watch registers a new clean window. Callers hold e.mu.
func (e *Engine) watch() *Watch {
	w := &Watch{e: e}
	e.watches[w] = struct{}{}
	return w
}

// Close unregisters the window: the engine stops marking it.
func (w *Watch) Close() {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	delete(w.e.watches, w)
}

// Capture takes the window, resetting it, together with the engine
// state a build reads, under one engine lock.
func (w *Watch) Capture() Capture {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	return w.capture()
}

// capture is Capture for callers that hold e.mu.
func (w *Watch) capture() Capture {
	e := w.e
	c := Capture{Counts: e.metricCounts(Count), Version: e.version, Window: w.win, Cutover: e.approxCutover, dirtyAt: w.dirtyAt}
	w.win, w.dirtyAt = build.Window{}, 0
	return c
}

// Restore hands a capture's window back after the build that took it
// failed: its mutations stay pending, and the staleness clock keeps
// their age.
func (w *Watch) Restore(c Capture) {
	w.e.mu.Lock()
	defer w.e.mu.Unlock()
	w.restore(c)
}

// restore is Restore for callers that hold e.mu.
func (w *Watch) restore(c Capture) {
	w.win.Merge(c.Window)
	if c.dirtyAt != 0 && (w.dirtyAt == 0 || c.dirtyAt < w.dirtyAt) {
		w.dirtyAt = c.dirtyAt
	}
}

// DirtySince returns when the oldest mutation not yet captured landed,
// or the zero time when there is none.
func (w *Watch) DirtySince() time.Time {
	w.e.mu.RLock()
	defer w.e.mu.RUnlock()
	if w.dirtyAt == 0 {
		return time.Time{}
	}
	return time.Unix(0, w.dirtyAt)
}

// markDirty records a mutation of the value span [lo,hi] in every
// registered watch. Callers hold e.mu.
func (e *Engine) markDirty(lo, hi int) {
	for w := range e.watches {
		w.win.Mark(lo, hi, e.domain)
		if w.dirtyAt == 0 {
			w.dirtyAt = time.Now().UnixNano()
		}
	}
}

// SetApproxCutover configures the domain size at and above which full
// synopsis builds — the engine's and those of every serving layer over
// it — substitute the method's (1+ε)-approximate counterpart
// (build.WithApprox): 0 restores the default
// (build.DefaultApproxCutover), a negative value disables
// substitution. Registered synopses keep their original options; only
// the construction is substituted.
func (e *Engine) SetApproxCutover(cutover int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.approxCutover = cutover
}
