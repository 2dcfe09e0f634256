package cluster

import (
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"rangeagg/internal/serve"
	"rangeagg/internal/wal"
)

// Follower is the replica side of snapshot replication: it pulls the
// primary's newest checkpoint on an interval and installs it into the
// local server (engine replace + synchronous rebuild), so the replica
// converges on the primary's state within one pull interval plus a
// rebuild. The primary forces a fresh checkpoint on every /checkpoint
// request when it has un-checkpointed records, so the replica's lag is
// bounded by the pull interval, not the primary's checkpoint cadence.
type Follower struct {
	// Primary is the primary's base endpoint (scheme://host:port).
	Primary string
	// Server is the local replica server to install into.
	Server *serve.Server
	// Every is the pull interval (default 2s).
	Every time.Duration
	// Client is the HTTP client (default: 30s timeout — checkpoints can
	// be large).
	Client *http.Client

	applied   uint64 // last installed checkpoint index
	installed bool   // at least one successful install

	stop      chan struct{}
	done      chan struct{}
	closeOnce sync.Once
}

// Start begins the pull loop; the first pull runs immediately.
func (f *Follower) Start() {
	if f.Every <= 0 {
		f.Every = 2 * time.Second
	}
	if f.Client == nil {
		f.Client = &http.Client{Timeout: 30 * time.Second}
	}
	f.Primary = normalizeAddr(f.Primary)
	// Publish not-synced before the first pull: a replica must report
	// unready until it has installed real state, or a router could route
	// to an empty engine.
	f.Server.SetFollowState(serve.FollowState{Primary: f.Primary})
	f.stop = make(chan struct{})
	f.done = make(chan struct{})
	go f.loop()
}

// Stop ends the pull loop and waits for it to exit.
func (f *Follower) Stop() {
	f.closeOnce.Do(func() { close(f.stop) })
	<-f.done
}

func (f *Follower) loop() {
	defer close(f.done)
	f.pullAndReport()
	tick := time.NewTicker(f.Every)
	defer tick.Stop()
	for {
		select {
		case <-f.stop:
			return
		case <-tick.C:
			f.pullAndReport()
		}
	}
}

func (f *Follower) pullAndReport() {
	err := f.PullOnce()
	st := serve.FollowState{
		Primary:  f.Primary,
		Applied:  f.applied,
		Synced:   f.installed && err == nil,
		PulledAt: time.Now(),
	}
	if err != nil {
		st.Err = err.Error()
		// A failed pull leaves the last installed state serving; the
		// replica stays synced=false until a pull succeeds again, so the
		// router deprioritizes it rather than dropping it.
		st.Synced = false
	}
	f.Server.SetFollowState(st)
}

// PullOnce fetches the primary's newest checkpoint and installs it,
// skipping the install when the checkpoint index is unchanged (the
// common steady-state case: no new writes, nothing to do).
func (f *Follower) PullOnce() error {
	resp, err := f.Client.Get(f.Primary + "/checkpoint")
	if err != nil {
		return fmt.Errorf("pulling checkpoint: %w", err)
	}
	defer resp.Body.Close()
	if err := serve.CheckResponse(resp); err != nil {
		return fmt.Errorf("pulling checkpoint: %w", err)
	}
	// Fast path: the primary advertises the checkpoint index in a
	// header; identical index means identical state — skip the decode,
	// install, and rebuild entirely.
	if h := resp.Header.Get("X-Checkpoint-Applied"); h != "" && f.installed {
		if idx, err := strconv.ParseUint(h, 10, 64); err == nil && idx == f.applied {
			return nil
		}
	}
	ck, err := wal.DecodeCheckpoint(resp.Body)
	if err != nil {
		return fmt.Errorf("decoding checkpoint: %w", err)
	}
	if err := f.Server.InstallCheckpoint(ck); err != nil {
		return fmt.Errorf("installing checkpoint: %w", err)
	}
	f.applied = ck.Applied
	f.installed = true
	return nil
}

// Applied is the index of the last installed checkpoint.
func (f *Follower) Applied() uint64 { return f.applied }
