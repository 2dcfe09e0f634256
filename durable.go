package rangeagg

import (
	"time"

	"rangeagg/internal/engine"
	"rangeagg/internal/wal"
)

// DurableOptions tunes OpenDurable; zero values select the defaults.
type DurableOptions struct {
	// Name names the column on first boot (default "durable").
	Name string
	// Domain is the attribute domain size; required to initialize a
	// fresh directory, validated (when positive) against the recovered
	// domain otherwise.
	Domain int
	// Fsync is the log durability policy: "always" (default — an
	// acknowledged mutation survives power loss), "interval" (fsync on a
	// background tick), or "off" (the OS page cache decides).
	Fsync string
	// FsyncInterval is the "interval" policy's tick (default 100ms).
	FsyncInterval time.Duration
	// SegmentBytes rotates the active log segment past this size
	// (default 1 MiB).
	SegmentBytes int64
	// CheckpointEvery bounds replay work: MaybeCheckpoint (and the
	// serving layer's piggybacked checkpoints) fire once this many
	// records accumulate past the last checkpoint (default 4096).
	CheckpointEvery int64
}

// RecoveryInfo reports what OpenDurable reconstructed.
type RecoveryInfo struct {
	// Fresh is true when the directory was just initialized.
	Fresh bool
	// Replayed counts the log records applied on top of the newest
	// checkpoint.
	Replayed int64
	// Torn is true when replay stopped at a torn or corrupt record; the
	// valid prefix is the recovered state.
	Torn bool
}

// DurabilityStats is the exported counter set of a durable engine.
type DurabilityStats struct {
	// Appends counts log records written; Bytes their framed size.
	Appends, Bytes int64
	// Fsyncs counts explicit syncs of log and checkpoint files.
	Fsyncs int64
	// Checkpoints counts checkpoint files written this session.
	Checkpoints int64
	// LastCheckpointAge is the time since the newest checkpoint.
	LastCheckpointAge time.Duration
	// RecordsSinceCheckpoint is the replay debt a crash would incur now.
	RecordsSinceCheckpoint int64
	// ReplayedRecords is the startup replay count.
	ReplayedRecords int64
}

// Durable is an Engine whose mutations survive process crashes: every
// mutation is appended to a write-ahead log in the data directory before
// the call returns, checkpoints bound the replay debt, and OpenDurable
// recovers the exact pre-crash state (counts bit-exactly, serializable
// synopses bit-identically). Mutations go through the Durable methods,
// which log them; the reads are Engine's, over the warm in-memory
// engine. Durable has no SetAutoRefresh, so no read rebuilds a synopsis
// behind the log.
type Durable struct {
	reader
	db  *wal.DB
	rec RecoveryInfo
}

// OpenDurable opens (or initializes) a durable engine rooted at a data
// directory. Recovery loads the newest valid checkpoint, replays the log
// tail, stops cleanly at the first torn or corrupt record, and hands
// back a warm engine.
func OpenDurable(dir string, opt DurableOptions) (*Durable, error) {
	policy, err := wal.ParseFsyncPolicy(opt.Fsync)
	if err != nil {
		return nil, err
	}
	db, rec, err := wal.Open(dir, wal.Options{
		Name:            opt.Name,
		Domain:          opt.Domain,
		Fsync:           policy,
		FsyncEvery:      opt.FsyncInterval,
		SegmentBytes:    opt.SegmentBytes,
		CheckpointEvery: opt.CheckpointEvery,
	})
	if err != nil {
		return nil, err
	}
	return &Durable{
		reader: reader{db.Engine()},
		db:     db,
		rec:    RecoveryInfo{Fresh: rec.Fresh, Replayed: rec.Replayed, Torn: rec.Torn},
	}, nil
}

// Recovery reports what opening this durable engine reconstructed.
func (d *Durable) Recovery() RecoveryInfo { return d.rec }

// Insert durably adds occurrences records with the given attribute value.
func (d *Durable) Insert(value int, occurrences int64) error {
	return d.db.Insert(value, occurrences)
}

// Delete durably removes occurrences records with the given value.
func (d *Durable) Delete(value int, occurrences int64) error {
	return d.db.Delete(value, occurrences)
}

// Load durably bulk-inserts counts per attribute value.
func (d *Durable) Load(counts []int64) error { return d.db.Load(counts) }

// BuildSynopsis durably constructs and registers a synopsis; recovery
// replays the build against the same counts, reproducing it exactly.
func (d *Durable) BuildSynopsis(name string, metric Metric, opt Options) error {
	bo, err := opt.toBuild()
	if err != nil {
		return err
	}
	_, err = d.db.BuildSynopsis(name, engine.Metric(metric), bo)
	return err
}

// DropSynopsis durably removes a named synopsis, reporting whether it
// existed.
func (d *Durable) DropSynopsis(name string) bool {
	had, _ := d.db.DropSynopsis(name)
	return had
}

// MergeFrom durably absorbs a shard engine (see Engine.MergeFrom): the
// shard's counts and estimator are logged, so the absorption survives a
// crash.
func (d *Durable) MergeFrom(other *Engine, name string) error {
	inner := other.inner
	o, err := inner.Synopsis(name)
	if err != nil {
		return wrapEngineErr(err)
	}
	_, err = d.db.AbsorbShard(name, inner.Counts(), o.Metric, o.Options, o.Est)
	return err
}

// Checkpoint serializes the current counts and every built synopsis into
// an atomically-renamed checkpoint file and truncates the superseded log
// segments.
func (d *Durable) Checkpoint() error { return d.db.Checkpoint() }

// Stats exports the durability counters.
func (d *Durable) Stats() DurabilityStats {
	s := d.db.Stats()
	return DurabilityStats{
		Appends:                s.Appends,
		Bytes:                  s.Bytes,
		Fsyncs:                 s.Fsyncs,
		Checkpoints:            s.Checkpoints,
		LastCheckpointAge:      time.Duration(s.LastCheckpointAgeS * float64(time.Second)),
		RecordsSinceCheckpoint: s.RecordsSinceCkpt,
		ReplayedRecords:        s.ReplayedRecords,
	}
}

// Close syncs and closes the log. The in-memory engine keeps answering
// queries; further mutations fail.
func (d *Durable) Close() error { return d.db.Close() }
