package wal

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"rangeagg/internal/build"
	"rangeagg/internal/codec"
	"rangeagg/internal/engine"
	"rangeagg/internal/obs"
)

// Options tunes a durable engine; zero values select the defaults.
type Options struct {
	// Name names the engine column on first boot (default "durable").
	Name string
	// Domain is the attribute domain on first boot; required to
	// initialize a fresh directory, validated (when positive) against the
	// recovered domain otherwise.
	Domain int
	// Fsync selects the log's durability point (default FsyncAlways).
	Fsync FsyncPolicy
	// FsyncEvery is the FsyncInterval tick (default 100ms).
	FsyncEvery time.Duration
	// SegmentBytes rotates the active log segment past this size
	// (default 1 MiB).
	SegmentBytes int64
	// CheckpointEvery makes MaybeCheckpoint fire once this many records
	// accumulate past the last checkpoint (default 4096).
	CheckpointEvery int64
	// KeepCheckpoints retains this many newest intact checkpoint files
	// (default 2), and the log back to the oldest of them, so recovery
	// falls back from a damaged newest checkpoint to an older one
	// without losing a record. Each older generation costs one
	// checkpoint interval of log on disk; with 1, a checkpoint truncates
	// the log through itself.
	KeepCheckpoints int
}

func (o Options) withDefaults() Options {
	if o.Name == "" {
		o.Name = "durable"
	}
	if o.FsyncEvery <= 0 {
		o.FsyncEvery = fsyncEveryDefault
	}
	if o.SegmentBytes <= 0 {
		o.SegmentBytes = 1 << 20
	}
	if o.CheckpointEvery <= 0 {
		o.CheckpointEvery = 4096
	}
	if o.KeepCheckpoints <= 0 {
		o.KeepCheckpoints = 2
	}
	return o
}

// ShardMerge is empty and never produced; it stays only because perfbench assigns Recovery.Shards to serve.Config.RecoveredShards.
type ShardMerge struct{}

// Recovery describes what Open reconstructed.
type Recovery struct {
	// Fresh is true when the directory was just initialized (no prior
	// state existed).
	Fresh bool
	// Checkpoint is the applied index of the checkpoint recovered from.
	Checkpoint uint64
	// Replayed counts log records applied on top of the checkpoint.
	Replayed int64
	// Torn is true when replay stopped at a torn or corrupt record and
	// the log was truncated to the valid prefix.
	Torn bool
	// Shards is always nil; it stays only because perfbench reads it.
	Shards []ShardMerge
}

// counters are the durability metrics, shared between Log and DB.
type counters struct {
	appends     atomic.Int64
	bytes       atomic.Int64
	fsyncs      atomic.Int64
	checkpoints atomic.Int64
	replayed    atomic.Int64
	sinceCkpt   atomic.Int64
	lastCkpt    atomic.Int64 // unix nanos; 0 = never
}

// Stats is the exported durability gauge/counter set (the /metrics
// "durability" block).
type Stats struct {
	Appends            int64   `json:"wal_appends"`
	Bytes              int64   `json:"wal_bytes"`
	Fsyncs             int64   `json:"fsyncs"`
	Checkpoints        int64   `json:"checkpoints"`
	LastCheckpointAgeS float64 `json:"last_checkpoint_age_s"`
	RecordsSinceCkpt   int64   `json:"records_since_checkpoint"`
	ReplayedRecords    int64   `json:"replayed_records"`
	Segments           int64   `json:"wal_segments"`
}

// DB is a durable engine: every mutation is applied to the wrapped
// in-memory engine and appended to the log under one mutex, so the log
// order equals the apply order and replay is deterministic. Reads go
// straight to Engine(); mutations MUST go through the DB or they are
// lost on restart.
type DB struct {
	dir string
	opt Options

	// mu serializes mutations with their log appends (and with
	// checkpoint state capture).
	mu       sync.Mutex
	eng      *engine.Engine
	log      *Log
	declared []engine.SynopsisSpec // serving-layer specs to carry in checkpoints: recovered, then SetDeclaredSpecs

	// ckptMu serializes checkpoint writes against each other.
	ckptMu sync.Mutex

	stats  counters
	stop   chan struct{}
	done   chan struct{}
	closed sync.Once
}

// Open recovers (or initializes) a data directory and returns a warm
// durable engine. Recovery loads the newest valid checkpoint, replays
// the log tail in order — stopping cleanly at the first torn or corrupt
// record, truncating the log to the valid prefix — and reports what it
// did. A fresh directory requires opt.Domain and immediately gets a
// baseline checkpoint, so a data directory always carries enough state
// to recover without external configuration. A directory holding state
// of the retired shard inbox fails with *ShardInboxError and is left
// untouched.
func Open(dir string, opt Options) (*DB, *Recovery, error) {
	_, span := obs.Start(context.Background(), "wal.recover")
	span.SetAttr("dir", dir)
	span.OnEnd(walRecoverySeconds.Observe)
	defer span.End()
	opt = opt.withDefaults()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: creating data directory: %w", err)
	}
	d := &DB{dir: dir, opt: opt, stop: make(chan struct{}), done: make(chan struct{})}

	rec := &Recovery{}
	ckpt, found, err := newestValidCheckpoint(dir)
	if err != nil {
		return nil, nil, err
	}
	if !found {
		if opt.Domain <= 0 {
			return nil, nil, fmt.Errorf("wal: initializing %s needs a positive domain, got %d", dir, opt.Domain)
		}
		ckpt = checkpointWire{Name: opt.Name, Domain: opt.Domain, Applied: 0, Counts: make([]int64, opt.Domain)}
		if err := writeCheckpoint(dir, ckpt); err != nil {
			return nil, nil, err
		}
		rec.Fresh = true
	} else if opt.Domain > 0 && opt.Domain != ckpt.Domain {
		return nil, nil, fmt.Errorf("wal: %s holds domain %d, asked to open with domain %d", dir, ckpt.Domain, opt.Domain)
	}
	rec.Checkpoint = ckpt.Applied

	if err := d.restoreCheckpoint(ckpt); err != nil {
		return nil, nil, err
	}

	nextIndex, activePath, activeBase, activeCount, activeEnd, err := d.replay(ckpt.Applied, rec)
	if err != nil {
		return nil, nil, err
	}
	d.stats.replayed.Store(rec.Replayed)
	d.stats.sinceCkpt.Store(int64(nextIndex - 1 - ckpt.Applied))
	d.stats.lastCkpt.Store(time.Now().UnixNano())

	d.log, err = openLog(dir, nextIndex, activePath, activeBase, activeCount, activeEnd,
		opt.SegmentBytes, opt.Fsync, &d.stats)
	if err != nil {
		return nil, nil, err
	}

	span.SetAttrInt("checkpoint", int64(rec.Checkpoint))
	span.SetAttrInt("replayed", rec.Replayed)
	span.SetAttr("torn", strconv.FormatBool(rec.Torn))
	span.SetAttr("fresh", strconv.FormatBool(rec.Fresh))

	go d.fsyncLoop()
	return d, rec, nil
}

// restoreCheckpoint sets up the engine a checkpoint describes: counts
// are loaded, and engine synopses are decoded from their blobs and
// installed verbatim (bit-identical to the pre-crash estimators). A
// spec-only entry is a serving layer's declared spec: recovery builds
// nothing for it, and it stays declared, riding into later checkpoints
// until the serving layer declares its own.
func (d *DB) restoreCheckpoint(ckpt checkpointWire) error {
	eng, err := engine.New(ckpt.Name, ckpt.Domain)
	if err != nil {
		return err
	}
	if err := eng.Load(ckpt.Counts); err != nil {
		return fmt.Errorf("wal: restoring counts: %w", err)
	}
	d.eng = eng
	for _, cs := range ckpt.Synopses {
		if cs.Blob == nil {
			d.declared = append(d.declared, engine.SynopsisSpec{Name: cs.Name, Metric: engine.Metric(cs.Metric), Options: cs.Options})
			continue
		}
		est, err := codec.Read(bytes.NewReader(cs.Blob))
		if err != nil {
			return fmt.Errorf("wal: decoding synopsis %q: %w", cs.Name, err)
		}
		if est.N() != ckpt.Domain {
			return fmt.Errorf("wal: synopsis %q spans domain %d, checkpoint holds %d", cs.Name, est.N(), ckpt.Domain)
		}
		eng.InstallSynopsis(cs.Name, engine.Metric(cs.Metric), cs.Options, est, cs.Fresh)
	}
	return nil
}

// replay applies the log tail past the checkpoint. It returns where the
// log continues: the next record index and, when the last segment's
// valid prefix ends exactly there, that segment as the active one to
// keep appending into (already truncated to its valid bytes). Segments
// the checkpoint covers are skipped unread. A segment that begins past
// the next index is a gap: the records in between are lost (a fallback
// to a checkpoint older than the log reaches, or outside damage, since a
// rotation syncs the old segment before it creates the next). replay
// then fails before any file is modified, rather than recover a state
// that drops acknowledged records.
func (d *DB) replay(applied uint64, rec *Recovery) (nextIndex uint64, activePath string, activeBase, activeCount uint64, activeEnd int64, err error) {
	segs, err := listSegments(d.dir)
	if err != nil {
		return 0, "", 0, 0, 0, err
	}
	nextIndex = applied + 1
	stopped := false // a torn record or gap ended the usable log
	for i, s := range segs {
		if stopped {
			// Unreachable past the tear: discard so a later boot cannot
			// resurrect records beyond the recovered prefix.
			if err := os.Remove(s.path); err != nil {
				return 0, "", 0, 0, 0, fmt.Errorf("wal: removing unreachable segment: %w", err)
			}
			continue
		}
		if i+1 < len(segs) && segs[i+1].base <= nextIndex {
			// Covered by the checkpoint, as the next segment begins within
			// it: skipped unread, so damage in it costs nothing.
			continue
		}
		base, payloads, validEnd, intact, ok, err := readSegment(s.path)
		if err != nil {
			return 0, "", 0, 0, 0, err
		}
		end := base + uint64(len(payloads)) // one past the last valid index
		switch {
		case !ok || base != s.base:
			// Unreadable header, or a header base its file name does not
			// carry (the base has no checksum): nothing in this file is
			// trustworthy.
			stopped = true
			rec.Torn = true
			if err := os.Remove(s.path); err != nil {
				return 0, "", 0, 0, 0, fmt.Errorf("wal: removing corrupt segment: %w", err)
			}
			continue
		case end <= nextIndex && intact:
			// Entirely covered by the checkpoint; the log may continue
			// in it.
			activePath, activeBase, activeCount, activeEnd = s.path, base, uint64(len(payloads)), validEnd
			continue
		case base > nextIndex:
			// Files change only past a tear, so none has been modified.
			return 0, "", 0, 0, 0, fmt.Errorf("wal: segment %s begins at record %d, but record %d is missing from the log; refusing to recover past the gap", s.path, base, nextIndex)
		}
		for i, payload := range payloads {
			idx := base + uint64(i)
			if idx < nextIndex {
				continue
			}
			rw, err := unmarshalRecord(payload)
			if err == nil {
				err = d.apply(rw)
			}
			var inbox *ShardInboxError
			if errors.As(err, &inbox) {
				// Not damage: truncating here would drop the acknowledged
				// records after it. Nothing has been modified yet, since
				// files change only past a tear.
				inbox.Src = s.path
				return 0, "", 0, 0, 0, inbox
			}
			if err != nil {
				// A record that decodes but cannot apply is treated like
				// a torn record: the valid prefix ends just before it.
				intact = false
				validEnd = int64(segHdrLen)
				for _, p := range payloads[:i] {
					validEnd += int64(recHdrLen + len(p))
				}
				end = idx
				break
			}
			nextIndex = idx + 1
			rec.Replayed++
		}
		if end < base+uint64(len(payloads)) || !intact {
			// Truncate the file to its valid prefix and stop.
			if err := os.Truncate(s.path, validEnd); err != nil {
				return 0, "", 0, 0, 0, fmt.Errorf("wal: truncating torn segment: %w", err)
			}
			rec.Torn = true
			stopped = true
			activePath, activeBase, activeEnd = s.path, base, validEnd
			if end >= base {
				activeCount = end - base
			}
			continue
		}
		activePath, activeBase, activeCount, activeEnd = s.path, base, uint64(len(payloads)), validEnd
	}
	// Only a segment ending exactly at the continuation point can stay
	// active; otherwise start a new one (openLog handles activePath="").
	if activePath != "" && activeBase+activeCount != nextIndex {
		activePath = ""
	}
	return nextIndex, activePath, activeBase, activeCount, activeEnd, nil
}

// apply performs one logged mutation against the engine. It is the
// single interpretation of the log.
func (d *DB) apply(rw recordWire) error {
	switch rw.Kind {
	case KindInsert:
		return d.eng.Insert(rw.Value, rw.Occ)
	case KindDelete:
		return d.eng.Delete(rw.Value, rw.Occ)
	case KindLoad:
		return d.eng.Load(rw.Counts)
	case KindAddSpec:
		if rw.Options == nil {
			return fmt.Errorf("wal: addspec record without options")
		}
		_, err := d.eng.BuildSynopsis(rw.Name, engine.Metric(rw.Metric), *rw.Options)
		return err
	case KindDropSpec:
		d.eng.DropSynopsis(rw.Name)
		return nil
	case KindMerge:
		if rw.Counts == nil {
			return &ShardInboxError{Name: rw.Name}
		}
		est, err := codec.Read(bytes.NewReader(rw.Blob))
		if err != nil {
			return fmt.Errorf("wal: decoding merge shard: %w", err)
		}
		if rw.Options == nil {
			return fmt.Errorf("wal: merge record without options")
		}
		_, err = d.eng.AbsorbShard(rw.Name, rw.Counts, engine.Metric(rw.Metric), *rw.Options, est)
		return err
	}
	return fmt.Errorf("wal: unknown record kind %q", rw.Kind)
}

// Engine exposes the wrapped engine for reads (queries, reports,
// snapshot builds). Mutating it directly bypasses the log.
func (d *DB) Engine() *engine.Engine { return d.eng }

// Dir returns the data directory.
func (d *DB) Dir() string { return d.dir }

// logged applies a mutation and appends its record under the mutation
// mutex, so log order equals apply order. The record is appended only
// after the mutation succeeds — an invalid request never reaches the
// log — and the call returns only after the append (and, under
// FsyncAlways, the fsync), so an acknowledged mutation is in the log.
func (d *DB) logged(rw recordWire, mutate func() error) error {
	d.mu.Lock()
	defer d.mu.Unlock()
	if err := mutate(); err != nil {
		return err
	}
	if _, err := d.log.Append(rw); err != nil {
		return fmt.Errorf("wal: mutation applied but not logged (restart will lose it): %w", err)
	}
	d.stats.sinceCkpt.Add(1)
	return nil
}

// Insert durably adds occurrences of a value.
func (d *DB) Insert(value int, occurrences int64) error {
	return d.logged(recordWire{Kind: KindInsert, Value: value, Occ: occurrences},
		func() error { return d.eng.Insert(value, occurrences) })
}

// Delete durably removes occurrences of a value.
func (d *DB) Delete(value int, occurrences int64) error {
	return d.logged(recordWire{Kind: KindDelete, Value: value, Occ: occurrences},
		func() error { return d.eng.Delete(value, occurrences) })
}

// Load durably bulk-adds a whole distribution.
func (d *DB) Load(counts []int64) error {
	return d.logged(recordWire{Kind: KindLoad, Counts: counts},
		func() error { return d.eng.Load(counts) })
}

// BuildSynopsis durably builds and registers a synopsis. The build runs
// under the mutation mutex so replay rebuilds from exactly the counts
// the live build saw.
func (d *DB) BuildSynopsis(name string, metric engine.Metric, opt build.Options) (*engine.Synopsis, error) {
	var syn *engine.Synopsis
	err := d.logged(recordWire{Kind: KindAddSpec, Name: name, Metric: int(metric), Options: &opt},
		func() (err error) {
			syn, err = d.eng.BuildSynopsis(name, metric, opt)
			return err
		})
	return syn, err
}

// DropSynopsis durably drops a synopsis. Only an existing synopsis is
// logged.
func (d *DB) DropSynopsis(name string) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	if !d.eng.DropSynopsis(name) {
		return false, nil
	}
	if _, err := d.log.Append(recordWire{Kind: KindDropSpec, Name: name}); err != nil {
		return true, fmt.Errorf("wal: mutation applied but not logged (restart will lose it): %w", err)
	}
	d.stats.sinceCkpt.Add(1)
	return true, nil
}

// AbsorbShard durably merges a shard's counts and synopsis into the
// engine (the engine-level MergeFrom path).
func (d *DB) AbsorbShard(name string, shardCounts []int64, metric engine.Metric, opt build.Options, est build.Estimator) (*engine.Synopsis, error) {
	blob, err := encodeEstimator(est)
	if err != nil {
		return nil, err
	}
	var syn *engine.Synopsis
	err = d.logged(recordWire{Kind: KindMerge, Name: name, Counts: shardCounts, Metric: int(metric), Options: &opt, Blob: blob},
		func() (err error) {
			syn, err = d.eng.AbsorbShard(name, shardCounts, metric, opt, est)
			return err
		})
	return syn, err
}

// encodeEstimator serializes an estimator to its codec envelope bytes.
func encodeEstimator(est build.Estimator) ([]byte, error) {
	var buf bytes.Buffer
	if err := codec.Write(&buf, est); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Checkpoint captures the engine's exact state — counts plus every
// engine synopsis as its codec wire bytes (every registered method is
// serializable) — and the declared specs as spec-only entries, writes
// it as an atomically-renamed checkpoint file, prunes old checkpoints
// and truncates the log segments no retained one needs. Mutations are
// blocked only while the state is captured and the log rotated;
// serialization and file I/O run outside the mutation mutex.
func (d *DB) Checkpoint() error {
	_, span := obs.Start(context.Background(), "wal.checkpoint")
	span.OnEnd(walCheckpointSeconds.Observe)
	defer span.End()
	d.ckptMu.Lock()
	defer d.ckptMu.Unlock()

	d.mu.Lock()
	applied := d.log.LastIndex()
	counts := d.eng.Counts()
	version := d.eng.Version()
	syns := d.eng.Synopses()
	declared := append([]engine.SynopsisSpec(nil), d.declared...)
	if err := d.log.Rotate(); err != nil {
		d.mu.Unlock()
		return err
	}
	d.mu.Unlock()

	span.SetAttrInt("applied", int64(applied))
	span.SetAttrInt("synopses", int64(len(syns)))
	wire := checkpointWire{Name: d.eng.Name(), Domain: d.eng.Domain(), Applied: applied, Counts: counts}
	// A synopsis summarizes exactly the captured counts when it was built
	// at their version; a stale restored one stays a version behind
	// (engine.InstallSynopsis), so it is never written fresh.
	for _, s := range syns {
		blob, err := encodeEstimator(s.Est)
		if err != nil {
			return fmt.Errorf("wal: checkpointing synopsis %q: %w", s.Name, err)
		}
		wire.Synopses = append(wire.Synopses, ckptSynopsis{Name: s.Name, Metric: int(s.Metric), Options: s.Options, Blob: blob, Fresh: s.Version == version})
	}
	// Declared specs ride along without a blob: recovery carries them as
	// declared, and a replica installing this checkpoint builds them from
	// its counts.
	for _, sp := range declared {
		wire.Synopses = append(wire.Synopses, ckptSynopsis{Name: sp.Name, Metric: int(sp.Metric), Options: sp.Options})
	}
	if err := writeCheckpoint(d.dir, wire); err != nil {
		return err
	}
	d.stats.checkpoints.Add(1)
	d.stats.lastCkpt.Store(time.Now().UnixNano())
	d.stats.sinceCkpt.Store(int64(d.log.LastIndex() - applied))
	oldest, err := pruneCheckpoints(d.dir, d.opt.KeepCheckpoints)
	if err != nil {
		return err
	}
	_, err = d.log.TruncateThrough(oldest)
	return err
}

// MaybeCheckpoint checkpoints when at least CheckpointEvery records
// accumulated since the last one; it reports whether it did.
func (d *DB) MaybeCheckpoint() (bool, error) {
	if d.stats.sinceCkpt.Load() < d.opt.CheckpointEvery {
		return false, nil
	}
	return true, d.Checkpoint()
}

// Sync forces unsynced log appends to stable storage.
func (d *DB) Sync() error { return d.log.Sync() }

// Stats exports the durability counters.
func (d *DB) Stats() Stats {
	s := Stats{
		Appends:          d.stats.appends.Load(),
		Bytes:            d.stats.bytes.Load(),
		Fsyncs:           d.stats.fsyncs.Load(),
		Checkpoints:      d.stats.checkpoints.Load(),
		RecordsSinceCkpt: d.stats.sinceCkpt.Load(),
		ReplayedRecords:  d.stats.replayed.Load(),
	}
	if ts := d.stats.lastCkpt.Load(); ts > 0 {
		s.LastCheckpointAgeS = time.Since(time.Unix(0, ts)).Seconds()
	}
	if n, err := d.log.Segments(); err == nil {
		s.Segments = int64(n)
	}
	return s
}

// fsyncLoop is the FsyncInterval ticker; under other policies it only
// waits for Close.
func (d *DB) fsyncLoop() {
	defer close(d.done)
	if d.opt.Fsync != FsyncInterval {
		<-d.stop
		return
	}
	tick := time.NewTicker(d.opt.FsyncEvery)
	defer tick.Stop()
	for {
		select {
		case <-d.stop:
			return
		case <-tick.C:
			_ = d.log.Sync()
		}
	}
}

// Close syncs and closes the log. The engine stays usable in memory;
// further DB mutations fail.
func (d *DB) Close() error {
	d.closed.Do(func() { close(d.stop) })
	<-d.done
	return d.log.Close()
}
