// Package wal is the durability subsystem: a segmented, CRC-checksummed,
// length-prefixed append-only log of engine mutations with configurable
// fsync policy, background checkpoints that serialize the exact counts
// and every built synopsis through the wire codec, and crash recovery
// that loads the newest valid checkpoint and replays the log tail —
// stopping cleanly at the first torn or corrupt record and treating the
// valid prefix as the recovered state.
//
// Layout of a data directory:
//
//	wal-<first-index>.seg        log segments (hex-named by the global
//	                             index of their first record)
//	checkpoint-<applied>.ckpt    checkpoints (hex-named by the index of
//	                             the last record they cover)
//
// Each segment starts with a 16-byte header (8-byte magic, 8-byte
// little-endian first record index) followed by records framed as
// [4-byte LE payload length][4-byte LE CRC-32C of payload][payload].
// The payload is the JSON of a recordWire. Record indexes are global and
// contiguous: record i of a segment with base b has index b+i.
package wal

import (
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/crc32"

	"rangeagg/internal/build"
)

const (
	segMagic  = "RAGGWAL1"
	segHdrLen = 16 // magic + base index
	recHdrLen = 8  // payload length + CRC-32C
	// maxRecordBytes bounds a single record so a corrupted length prefix
	// cannot drive recovery into a giant allocation.
	maxRecordBytes = 64 << 20
)

// castagnoli is the CRC-32C table used for every checksum in the log.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Kind discriminates the logged mutation types.
type Kind string

// The record kinds, one per engine mutation the log captures.
const (
	KindInsert   Kind = "insert"
	KindDelete   Kind = "delete"
	KindLoad     Kind = "load"
	KindAddSpec  Kind = "addspec"  // build + register a synopsis
	KindDropSpec Kind = "dropspec" // drop a synopsis
	KindMerge    Kind = "merge"    // absorb a shard's counts and synopsis
)

// ShardInboxError reports state of the retired serving-layer shard
// inbox: a merge record without counts, or a checkpoint's shards
// section. That state folded a remote estimator without its records,
// which this version does not serve, so Open and DecodeCheckpoint refuse
// it whole instead of skipping it or truncating the log at it; no file
// is modified.
type ShardInboxError struct {
	// Src is the segment file or checkpoint holding the state.
	Src string
	// Name is the synopsis the shard estimator was merged into.
	Name string
}

func (e *ShardInboxError) Error() string {
	return fmt.Sprintf("wal: %s holds a shard-inbox merge into synopsis %q, which this version no longer reads", e.Src, e.Name)
}

// recordWire is the JSON payload of one log record. Fields are used per
// kind: insert/delete use Value+Occ; load and merge use Counts; addspec
// and merge carry the synopsis identity (Name, Metric, Options); merge
// also carries the shard estimator in the codec envelope form (Blob).
type recordWire struct {
	Kind    Kind           `json:"kind"`
	Value   int            `json:"value,omitempty"`
	Occ     int64          `json:"occ,omitempty"`
	Counts  []int64        `json:"counts,omitempty"`
	Name    string         `json:"name,omitempty"`
	Metric  int            `json:"metric,omitempty"`
	Options *build.Options `json:"options,omitempty"`
	Blob    []byte         `json:"blob,omitempty"`
}

// encodeRecord frames a payload: length prefix, CRC-32C, bytes.
func encodeRecord(payload []byte) ([]byte, error) {
	if len(payload) > maxRecordBytes {
		return nil, fmt.Errorf("wal: record of %d bytes exceeds the %d-byte limit", len(payload), maxRecordBytes)
	}
	frame := make([]byte, recHdrLen+len(payload))
	binary.LittleEndian.PutUint32(frame[0:4], uint32(len(payload)))
	binary.LittleEndian.PutUint32(frame[4:8], crc32.Checksum(payload, castagnoli))
	copy(frame[recHdrLen:], payload)
	return frame, nil
}

// decodeRecords walks the framed records in buf (a segment's bytes past
// the header), returning the payloads of the valid prefix and the byte
// offset just past the last valid record, relative to the start of buf.
// A torn or corrupt record (short frame, oversized length, checksum
// mismatch) ends the walk cleanly; intact reports whether the whole
// buffer was consumed without damage.
func decodeRecords(buf []byte) (payloads [][]byte, validEnd int, intact bool) {
	off := 0
	for {
		if off == len(buf) {
			return payloads, off, true
		}
		if len(buf)-off < recHdrLen {
			return payloads, off, false
		}
		n := int(binary.LittleEndian.Uint32(buf[off : off+4]))
		sum := binary.LittleEndian.Uint32(buf[off+4 : off+8])
		if n > maxRecordBytes || len(buf)-off-recHdrLen < n {
			return payloads, off, false
		}
		payload := buf[off+recHdrLen : off+recHdrLen+n]
		if crc32.Checksum(payload, castagnoli) != sum {
			return payloads, off, false
		}
		payloads = append(payloads, payload)
		off += recHdrLen + n
	}
}

// marshalRecord serializes a recordWire to its framed bytes.
func marshalRecord(rw recordWire) ([]byte, error) {
	payload, err := json.Marshal(rw)
	if err != nil {
		return nil, fmt.Errorf("wal: encoding %s record: %w", rw.Kind, err)
	}
	return encodeRecord(payload)
}

// unmarshalRecord parses one record payload. A payload that is valid
// framing but not a valid record (impossible without corruption that
// defeats the CRC, but cheap to guard) is an error the caller treats as
// the end of the valid prefix.
func unmarshalRecord(payload []byte) (recordWire, error) {
	var rw recordWire
	if err := json.Unmarshal(payload, &rw); err != nil {
		return rw, fmt.Errorf("wal: decoding record: %w", err)
	}
	switch rw.Kind {
	case KindInsert, KindDelete, KindLoad, KindAddSpec, KindDropSpec, KindMerge:
		return rw, nil
	}
	return rw, fmt.Errorf("wal: unknown record kind %q", rw.Kind)
}
