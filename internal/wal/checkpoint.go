package wal

import (
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"rangeagg/internal/build"
	"rangeagg/internal/fsx"
)

const ckptMagic = "RAGGCKP1"

// checkpointWire is the JSON body of a checkpoint file: the exact counts
// at the applied index plus every engine synopsis as its codec envelope
// bytes and every declared serving spec without a blob.
type checkpointWire struct {
	Name     string         `json:"name"`
	Domain   int            `json:"domain"`
	Applied  uint64         `json:"applied"`
	Counts   []int64        `json:"counts"`
	Synopses []ckptSynopsis `json:"synopses,omitempty"`
	// Shards is never written. It is decoded only so that a checkpoint of
	// the retired shard inbox is refused (ShardInboxError) rather than
	// loaded without it.
	Shards []struct {
		Name string `json:"name"`
	} `json:"shards,omitempty"`
}

// ckptSynopsis persists one synopsis. Blob is the codec envelope of an
// engine synopsis's estimator; it is nil exactly when the entry is a
// declared serving spec (DB.SetDeclaredSpecs), which recovery keeps
// declared without building it.
type ckptSynopsis struct {
	Name    string        `json:"name"`
	Metric  int           `json:"metric"`
	Options build.Options `json:"options"`
	Blob    []byte        `json:"blob,omitempty"`
	// Fresh records that the estimator summarized exactly the
	// checkpoint's counts, so recovery refreshes it as the live engine
	// would: reuse, or a rebuild of only what replayed records touch.
	// Checkpoints without it restore the estimator fully dirty.
	Fresh bool `json:"fresh,omitempty"`
}

// checkpointName returns the file name of the checkpoint covering all
// records with index ≤ applied.
func checkpointName(applied uint64) string { return fmt.Sprintf("checkpoint-%016x.ckpt", applied) }

// parseCheckpointName extracts the applied index from a checkpoint file
// name.
func parseCheckpointName(name string) (uint64, bool) {
	if !strings.HasPrefix(name, "checkpoint-") || !strings.HasSuffix(name, ".ckpt") {
		return 0, false
	}
	n, err := strconv.ParseUint(strings.TrimSuffix(strings.TrimPrefix(name, "checkpoint-"), ".ckpt"), 16, 64)
	return n, err == nil
}

// listCheckpoints returns the directory's checkpoints sorted by applied
// index, newest last.
func listCheckpoints(dir string) ([]segmentInfo, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, fmt.Errorf("wal: reading %s: %w", dir, err)
	}
	var cks []segmentInfo
	for _, e := range entries {
		if n, ok := parseCheckpointName(e.Name()); ok && !e.IsDir() {
			cks = append(cks, segmentInfo{path: filepath.Join(dir, e.Name()), base: n})
		}
	}
	sort.Slice(cks, func(i, j int) bool { return cks[i].base < cks[j].base })
	return cks, nil
}

// writeCheckpoint atomically writes the checkpoint file for wire.Applied:
// temp file in the directory, fsync, rename, directory fsync. The body
// is CRC-framed like a log record so bit rot is detected at load.
func writeCheckpoint(dir string, wire checkpointWire) error {
	body, err := json.Marshal(wire)
	if err != nil {
		return fmt.Errorf("wal: encoding checkpoint: %w", err)
	}
	return writeCheckpointBytes(dir, wire.Applied, body)
}

func writeCheckpointBytes(dir string, applied uint64, body []byte) error {
	hdr := make([]byte, len(ckptMagic)+recHdrLen)
	copy(hdr, ckptMagic)
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic):], uint32(len(body)))
	binary.LittleEndian.PutUint32(hdr[len(ckptMagic)+4:], crc32.Checksum(body, castagnoli))
	path := filepath.Join(dir, checkpointName(applied))
	return fsx.WriteFileAtomic(path, func(w io.Writer) error {
		if _, err := w.Write(hdr); err != nil {
			return err
		}
		_, err := w.Write(body)
		return err
	})
}

// readCheckpoint loads and validates one checkpoint file.
func readCheckpoint(path string) (checkpointWire, error) {
	buf, err := os.ReadFile(path)
	if err != nil {
		return checkpointWire{}, fmt.Errorf("wal: reading checkpoint %s: %w", path, err)
	}
	return decodeCheckpointBytes(buf, path)
}

// decodeCheckpointBytes validates and decodes a checkpoint's framed
// bytes, whether they came from a local file or a replication stream.
// src names the source for error messages.
func decodeCheckpointBytes(buf []byte, src string) (checkpointWire, error) {
	var wire checkpointWire
	body, err := checkpointBody(buf, src)
	if err != nil {
		return wire, err
	}
	if err := json.Unmarshal(body, &wire); err != nil {
		return wire, fmt.Errorf("wal: checkpoint %s: %w", src, err)
	}
	if wire.Domain <= 0 || len(wire.Counts) != wire.Domain {
		return wire, fmt.Errorf("wal: checkpoint %s: %d counts for domain %d", src, len(wire.Counts), wire.Domain)
	}
	for v, c := range wire.Counts {
		if c < 0 {
			return wire, fmt.Errorf("wal: checkpoint %s: negative count at value %d", src, v)
		}
	}
	if len(wire.Shards) > 0 {
		return wire, &ShardInboxError{Src: src, Name: wire.Shards[0].Name}
	}
	return wire, nil
}

// checkpointBody checks a checkpoint's frame (magic, length and
// checksum) and returns its JSON body.
func checkpointBody(buf []byte, src string) ([]byte, error) {
	hdrLen := len(ckptMagic) + recHdrLen
	if len(buf) < hdrLen || string(buf[:len(ckptMagic)]) != ckptMagic {
		return nil, fmt.Errorf("wal: checkpoint %s: bad header", src)
	}
	n := int(binary.LittleEndian.Uint32(buf[len(ckptMagic):]))
	sum := binary.LittleEndian.Uint32(buf[len(ckptMagic)+4:])
	body := buf[hdrLen:]
	if n != len(body) || crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("wal: checkpoint %s: checksum mismatch", src)
	}
	return body, nil
}

// pruneCheckpoints keeps the newest checkpoint, which the caller has
// just written, and the newest keep-1 older ones whose frame checks: a
// damaged checkpoint is no generation to fall back to. It removes the
// rest and returns the applied index of the oldest one kept.
func pruneCheckpoints(dir string, keep int) (uint64, error) {
	cks, err := listCheckpoints(dir)
	if err != nil || len(cks) == 0 {
		return 0, err
	}
	oldest := cks[len(cks)-1].base
	for i := len(cks) - 2; i >= 0; i-- {
		if keep > 1 {
			buf, err := os.ReadFile(cks[i].path)
			if err != nil {
				return 0, fmt.Errorf("wal: reading checkpoint %s: %w", cks[i].path, err)
			}
			if _, err := checkpointBody(buf, cks[i].path); err == nil {
				oldest, keep = cks[i].base, keep-1
				continue
			}
		}
		if err := os.Remove(cks[i].path); err != nil {
			return 0, fmt.Errorf("wal: pruning checkpoint: %w", err)
		}
	}
	return oldest, fsx.SyncDir(dir)
}

// newestValidCheckpoint loads the newest checkpoint that passes
// validation, skipping damaged ones. found is false when the directory
// has no checkpoint at all; an error means checkpoints exist but none
// loads, or the newest intact one holds shard-inbox state.
func newestValidCheckpoint(dir string) (checkpointWire, bool, error) {
	cks, err := listCheckpoints(dir)
	if err != nil {
		return checkpointWire{}, false, err
	}
	if len(cks) == 0 {
		return checkpointWire{}, false, nil
	}
	var firstErr error
	for i := len(cks) - 1; i >= 0; i-- {
		wire, err := readCheckpoint(cks[i].path)
		if err == nil {
			return wire, true, nil
		}
		var inbox *ShardInboxError
		if errors.As(err, &inbox) {
			// Not damage: an older generation would lose the records this
			// one covers.
			return checkpointWire{}, true, err
		}
		if firstErr == nil {
			firstErr = err
		}
	}
	return checkpointWire{}, true, fmt.Errorf("wal: no loadable checkpoint in %s: %w", dir, firstErr)
}
