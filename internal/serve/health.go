package serve

import (
	"fmt"
	"time"

	"rangeagg/internal/wal"
)

// This file is the node side of the cluster layer: the /healthz
// readiness contract the router polls, and the checkpoint install path
// a replica uses to converge on its primary's state.

// HealthStatus is the /healthz body: liveness plus the snapshot-version
// and staleness readiness signal the cluster router (or any load
// balancer) keys on. Ready is false while mutations older than MaxLag
// are still waiting for a rebuild, and — on a replica — until the first
// checkpoint install succeeded, so a router never routes to a node
// serving state it knows to be stale or empty.
type HealthStatus struct {
	Status   string `json:"status"` // "ok" or "degraded" (mirrors Ready)
	Ready    bool   `json:"ready"`
	NodeID   string `json:"node,omitempty"`
	Version  int64  `json:"version"`
	Epoch    int64  `json:"epoch"`
	Domain   int    `json:"domain"`
	Records  int64  `json:"records"`
	Rebuilds int64  `json:"rebuilds"`
	// SnapshotAgeS is the time since the served snapshot was published.
	SnapshotAgeS float64 `json:"snapshot_age_s"`
	// StalenessS is the age of the oldest mutation not yet reflected in
	// the served snapshot (0 when the snapshot is current).
	StalenessS float64 `json:"staleness_s"`
	MaxLagS    float64 `json:"max_lag_s"`
	// Applied is the write-ahead log's last record index (durable nodes
	// only); replicas report the index of their installed checkpoint
	// under Follow instead.
	Applied uint64 `json:"applied,omitempty"`
	// Follow describes replication state when this node follows a
	// primary.
	Follow *FollowStatus `json:"follow,omitempty"`
}

// FollowStatus is the replication block of a replica's health report.
type FollowStatus struct {
	Primary string `json:"primary"`
	// Applied is the log index of the installed checkpoint; the primary's
	// Applied minus this is the replica's lag in records.
	Applied      uint64  `json:"applied"`
	Synced       bool    `json:"synced"`
	LastPullAgeS float64 `json:"last_pull_age_s"`
	LastErr      string  `json:"last_err,omitempty"`
}

// FollowState is what a replication follower reports into its server
// (SetFollowState) after each pull attempt; /healthz republishes it.
type FollowState struct {
	Primary  string
	Applied  uint64
	Synced   bool
	PulledAt time.Time
	Err      string
}

// SetFollowState publishes the follower's replication state for
// /healthz. Safe for concurrent use.
func (s *Server) SetFollowState(st FollowState) { s.follow.Store(&st) }

// Health reports the node's liveness and readiness.
func (s *Server) Health() HealthStatus {
	snap := s.snap.Load()
	now := time.Now()
	h := HealthStatus{
		NodeID:   s.cfg.NodeID,
		Version:  snap.Version,
		Epoch:    snap.epoch,
		Domain:   snap.Domain,
		Records:  snap.Records,
		Rebuilds: s.Rebuilds(),
		MaxLagS:  s.cfg.MaxLag.Seconds(),
	}
	if at := s.swappedAt.Load(); at > 0 {
		h.SnapshotAgeS = now.Sub(time.Unix(0, at)).Seconds()
	}
	if at := s.watch.DirtySince(); !at.IsZero() {
		h.StalenessS = now.Sub(at).Seconds()
	}
	h.Ready = h.StalenessS <= h.MaxLagS
	if s.cfg.WAL != nil {
		h.Applied = s.cfg.WAL.Applied()
	}
	if st := s.follow.Load(); st != nil {
		h.Follow = &FollowStatus{Primary: st.Primary, Applied: st.Applied, Synced: st.Synced, LastErr: st.Err}
		if !st.PulledAt.IsZero() {
			h.Follow.LastPullAgeS = now.Sub(st.PulledAt).Seconds()
		}
		h.Ready = h.Ready && st.Synced
	}
	if h.Ready {
		h.Status = "ok"
	} else {
		h.Status = "degraded"
	}
	return h
}

// InstallCheckpoint replaces the node's data with a primary's decoded
// checkpoint and synchronously publishes a snapshot of it — the replica
// side of snapshot replication. The specs the checkpoint declares under
// names this node lacks are added to the published ones, so a bare
// replica converges on the primary's full serving shape; they are
// registered only if the publish succeeds.
// Durable nodes refuse the install: their write-ahead log is the
// authority on their data, and replacing state behind it would diverge
// recovery.
func (s *Server) InstallCheckpoint(ck *wal.CheckpointData) error {
	if s.cfg.WAL != nil {
		return fmt.Errorf("serve: refusing checkpoint install on a durable node (the WAL owns its data)")
	}
	if ck.Domain != s.eng.Domain() {
		return fmt.Errorf("serve: checkpoint spans domain %d, node serves %d", ck.Domain, s.eng.Domain())
	}
	s.rebuildMu.Lock()
	defer s.rebuildMu.Unlock()
	specs := s.snap.Load().specs()
	for _, sp := range ck.Specs {
		if specIndex(specs, sp.Name) < 0 {
			specs = append(specs, sp)
		}
	}
	if err := s.eng.Replace(ck.Counts); err != nil {
		return err
	}
	return s.rebuild(specs)
}
