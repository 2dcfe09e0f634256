package wal

import (
	"fmt"
	"io"
	"os"

	"rangeagg/internal/engine"
)

// This file is the replication surface of the durability layer: a
// primary streams its newest atomic checkpoint file verbatim (the bytes
// are already CRC-framed, so the receiver detects truncation and bit
// rot without any new wire format), and a replica decodes the stream
// into a CheckpointData it can install through the serving layer.

// CheckpointData is the decoded, validated view of one checkpoint a
// replica installs: the exact counts at the applied index plus the
// synopsis specs registered at capture time (the replica rebuilds
// estimators from the counts — bit-exact inputs give bit-exact
// synopses, so installing blobs is unnecessary off the recovery path).
type CheckpointData struct {
	// Name is the engine column name at the primary.
	Name string
	// Domain is the attribute domain size.
	Domain int
	// Applied is the log index the checkpoint covers; replicas use it to
	// skip re-installing a snapshot they already hold and to report lag.
	Applied uint64
	// Counts is the exact distribution at Applied.
	Counts []int64
	// Specs are the synopses registered when the checkpoint was taken.
	Specs []engine.SynopsisSpec
}

// DecodeCheckpoint reads one checkpoint stream (the bytes served by a
// primary's GET /checkpoint, i.e. a verbatim checkpoint file) and
// returns its validated contents. Any truncation or corruption fails
// the CRC and is reported as an error, never installed; a checkpoint
// holding shard-inbox state fails with *ShardInboxError.
func DecodeCheckpoint(r io.Reader) (*CheckpointData, error) {
	buf, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("wal: reading checkpoint stream: %w", err)
	}
	wire, err := decodeCheckpointBytes(buf, "stream")
	if err != nil {
		return nil, err
	}
	ck := &CheckpointData{Name: wire.Name, Domain: wire.Domain, Applied: wire.Applied, Counts: wire.Counts}
	for _, cs := range wire.Synopses {
		ck.Specs = append(ck.Specs, engine.SynopsisSpec{
			Name: cs.Name, Metric: engine.Metric(cs.Metric), Options: cs.Options,
		})
	}
	return ck, nil
}

// OpenNewestCheckpoint opens the newest checkpoint file for streaming
// and returns its applied index and size. The file was written with
// temp+fsync+rename, so the opened handle is a complete, immutable
// checkpoint even if a newer one lands mid-stream. Callers must close
// the reader.
func (d *DB) OpenNewestCheckpoint() (rc io.ReadCloser, applied uint64, size int64, err error) {
	d.ckptMu.Lock()
	cks, err := listCheckpoints(d.dir)
	d.ckptMu.Unlock()
	if err != nil {
		return nil, 0, 0, err
	}
	// Newest last; a pruned (vanished) file just means a newer one
	// exists, so walk backwards until one opens.
	for i := len(cks) - 1; i >= 0; i-- {
		f, err := os.Open(cks[i].path)
		if err != nil {
			if os.IsNotExist(err) {
				continue
			}
			return nil, 0, 0, fmt.Errorf("wal: opening checkpoint: %w", err)
		}
		st, err := f.Stat()
		if err != nil {
			f.Close()
			return nil, 0, 0, fmt.Errorf("wal: opening checkpoint: %w", err)
		}
		return f, cks[i].base, st.Size(), nil
	}
	return nil, 0, 0, fmt.Errorf("wal: no checkpoint in %s", d.dir)
}

// Applied returns the index of the last record in the log — the point a
// fully caught-up replica would reach. The difference between this and
// a replica's installed checkpoint index is the replica's lag in
// records.
func (d *DB) Applied() uint64 {
	return d.log.LastIndex()
}

// SetDeclaredSpecs records the serving layer's synopsis specs so
// checkpoints carry them as spec-only entries (name, metric, options —
// no estimator blob). Recovery builds nothing for them and keeps them
// declared; a replica installing the checkpoint builds them from its
// counts, so a bare replica converges on its primary's serving shape
// without local -syn flags. Declaring a name drops the engine synopsis
// of that name (a copy an older checkpoint restored), so each name
// appears once per checkpoint.
func (d *DB) SetDeclaredSpecs(specs []engine.SynopsisSpec) {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.declared = append([]engine.SynopsisSpec(nil), specs...)
	for _, sp := range specs {
		d.eng.DropSynopsis(sp.Name)
	}
}
