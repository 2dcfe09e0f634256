package engine

import (
	"fmt"

	"rangeagg/internal/build"
	"rangeagg/internal/ingest"
)

// EnableIngest switches a registered synopsis to incremental
// maintenance: from now on BuildSynopsis absorbs confined mutation
// windows through the ingest ladder (absorb / reopt / repair) and only
// escalations fall back to the rebuild paths. The synopsis must already
// be built and its representation maintainable (ingest.CanMaintain).
func (e *Engine) EnableIngest(name string, cfg ingest.Config) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	s, ok := e.synopses[name]
	if !ok {
		return &UnknownSynopsisError{Scope: "engine", Name: name}
	}
	if !ingest.CanMaintain(s.Est) {
		return fmt.Errorf("engine: synopsis %q (%T) is not maintainable", name, s.Est)
	}
	e.maint[name] = ingest.NewState(cfg)
	// Maintenance needs a mutation window even for methods without a
	// registry Rebuild hook. A window created now can only vouch for
	// mutations from now on, so it starts fully dirty unless the synopsis
	// is current.
	if e.windows[name] == nil {
		w := &build.Window{}
		if s.Version != e.version {
			w.MarkAll()
		}
		e.windows[name] = w
	}
	return nil
}

// DisableIngest returns a synopsis to the rebuild-only paths, reporting
// whether maintenance was enabled. The mutation window is dropped when
// the method cannot use it for partial rebuilds.
func (e *Engine) DisableIngest(name string) bool {
	e.mu.Lock()
	defer e.mu.Unlock()
	_, ok := e.maint[name]
	delete(e.maint, name)
	if s, reg := e.synopses[name]; reg && !build.CanRebuild(s.Options) {
		delete(e.windows, name)
	}
	return ok
}

// maintState returns the maintenance state of a synopsis, or nil.
func (e *Engine) maintState(name string) *ingest.State {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.maint[name]
}

// observeQuery feeds an answered range into the synopsis's drift
// trigger when it is under maintenance.
func (e *Engine) observeQuery(name string, a, b int) {
	if st := e.maintState(name); st != nil {
		st.Observe(a, b)
	}
}
