// Package persist is the durable-state subsystem of the streaming daemon:
// it stores full-detector checkpoints and a per-stream write-ahead log of
// the vectors observed since the last checkpoint, so a crashed or
// redeployed process resumes scoring exactly where it stopped instead of
// re-warming on live traffic.
//
// Layout: one Store owns a directory with two files per stream,
//
//	<escaped-id>.snap   — versioned, CRC-checked snapshot (atomic rename)
//	<escaped-id>.wal    — append-only log of raw stream vectors
//
// (and pages.swap, the warm tier's page cache: never part of recovery).
//
// Recovery contract: load the snapshot, then re-step every WAL record
// whose sequence number is at or past the snapshot's — records below it
// are already folded into the snapshot (a crash between snapshot rename
// and WAL rotation leaves such records behind; the filter makes that
// window harmless). Corrupt or truncated files are detected by magic,
// version and CRC checks and reported; a torn final WAL record — the
// normal shape of a mid-write crash — is reported as ErrTornWAL with the
// valid prefix intact.
package persist

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"

	"streamad/internal/wire"
)

const (
	snapMagic = "SADSNAP1"
	walMagic  = "SADWAL01"
	// Version identifies the on-disk layout of snapshot and WAL files.
	// Version 2 replaced the gob snapshot payload with the flat wire
	// layout; there is no migration, a v1 state dir is refused.
	Version uint32 = 2

	snapSuffix = ".snap"
	walSuffix  = ".wal"
	tmpSuffix  = ".tmp"
)

// castagnoli is the CRC-32C table used for all integrity checks.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// ErrTornWAL reports a WAL whose final record was cut short — the expected
// shape of a crash mid-append. The records before the tear are valid.
var ErrTornWAL = errors.New("persist: torn final WAL record")

// ErrFormatVersion reports a file written under a different on-disk
// format version than this build reads. It is not damage: the operator
// upgraded (or downgraded) across a format change and must start on an
// empty state dir.
type ErrFormatVersion struct {
	File  uint32 // version found in the file header
	Build uint32 // version this build reads and writes
}

func (e ErrFormatVersion) Error() string {
	return fmt.Sprintf("written by format v%d, this build reads v%d", e.File, e.Build)
}

// StreamSnapshot is one stream's checkpoint: the opaque detector blob
// (streamad.Detector.Save), the thresholder state and the serving
// counters. Seq is the number of vectors the stream had consumed when the
// snapshot was taken; WAL records with Seq' >= Seq must be replayed on
// recovery.
type StreamSnapshot struct {
	ID        string
	Seq       uint64
	Detector  []byte
	Threshold []byte
	Ready     int
	Alerts    int
}

// WALRecord is one logged stream vector.
type WALRecord struct {
	Seq    uint64
	Vector []float64
}

// Store manages the snapshot and WAL files of a state directory.
type Store struct {
	dir string
	// SyncWAL fsyncs after every WAL append. Off by default: the WAL then
	// survives process crashes (the common case) but a power failure may
	// cost the OS write-back window.
	SyncWAL bool

	mu   sync.Mutex
	wals map[string]*os.File
	rec  []byte   // Append's record scratch, guarded by mu
	swap swapFile // has its own lock; page I/O never takes mu
}

// Open creates (if needed) and opens a state directory. Temp files a
// crash left between create and rename are removed: they were never
// published, and nothing else would reclaim them until their stream
// happened to checkpoint again. So are the previous process's pages
// (its swap file, or one file per page from older builds).
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create state dir: %w", err)
	}
	for _, pattern := range []string{"*" + snapSuffix + tmpSuffix, swapName, "*" + pageSuffix, "*" + pageSuffix + tmpSuffix} {
		orphans, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil {
			return nil, fmt.Errorf("persist: scan state dir: %w", err)
		}
		for _, p := range orphans {
			if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) {
				return nil, fmt.Errorf("persist: remove leftover file: %w", err)
			}
		}
	}
	return &Store{dir: dir, wals: make(map[string]*os.File)}, nil
}

// Dir returns the state directory path.
func (s *Store) Dir() string { return s.dir }

// Close releases all open WAL handles and deletes the swap file.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	var first error
	for id, f := range s.wals {
		if err := f.Close(); err != nil && first == nil {
			first = err
		}
		delete(s.wals, id)
	}
	if f := s.swap.f; f != nil {
		f.Close()
		os.Remove(f.Name())
	}
	return first
}

// escapeID maps an arbitrary stream id to a safe file-name stem:
// alphanumerics, '-' and '_' pass through, everything else becomes %XX.
// The mapping is injective, so IDs() can invert it.
func escapeID(id string) string {
	var b strings.Builder
	for i := 0; i < len(id); i++ {
		c := id[i]
		if c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' || c == '-' || c == '_' {
			b.WriteByte(c)
		} else {
			fmt.Fprintf(&b, "%%%02X", c)
		}
	}
	return b.String()
}

// unescapeID inverts escapeID. It accepts only stems escapeID writes: a
// stem it would have spelled differently (lowercase hex, a character
// left unescaped or escaped needlessly) names no stream's file.
func unescapeID(name string) (string, error) {
	var b strings.Builder
	for i := 0; i < len(name); i++ {
		c := name[i]
		if c == '%' && i+2 < len(name) {
			if v, err := strconv.ParseUint(name[i+1:i+3], 16, 8); err == nil {
				c = byte(v)
				i += 2
			}
		}
		b.WriteByte(c)
	}
	if id := b.String(); escapeID(id) == name {
		return id, nil
	}
	return "", fmt.Errorf("persist: %q is not an escaped stream name", name)
}

func (s *Store) snapPath(id string) string { return filepath.Join(s.dir, escapeID(id)+snapSuffix) }
func (s *Store) walPath(id string) string  { return filepath.Join(s.dir, escapeID(id)+walSuffix) }

// IDs lists every stream with persisted state (a snapshot, a WAL, or
// both), sorted.
func (s *Store) IDs() ([]string, error) {
	entries, err := os.ReadDir(s.dir)
	if err != nil {
		return nil, fmt.Errorf("persist: read state dir: %w", err)
	}
	seen := make(map[string]bool)
	for _, e := range entries {
		name := e.Name()
		var stem string
		switch {
		case strings.HasSuffix(name, snapSuffix):
			stem = strings.TrimSuffix(name, snapSuffix)
		case strings.HasSuffix(name, walSuffix):
			stem = strings.TrimSuffix(name, walSuffix)
		default:
			continue
		}
		id, err := unescapeID(stem)
		if err != nil {
			continue // foreign file; not ours to interpret
		}
		seen[id] = true
	}
	ids := make([]string, 0, len(seen))
	for id := range seen {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids, nil
}

// WriteSnapshot atomically persists a stream snapshot (temp file + fsync +
// rename) and then rotates the stream's WAL. The caller must guarantee no
// concurrent appends for the same stream (the server holds the stream lock).
// The detector blob is written from the caller's buffer: only the short
// head in front of it is assembled here.
func (s *Store) WriteSnapshot(snap *StreamSnapshot) error {
	head := appendSnapshotHead(make([]byte, 0, snapshotHeadSize(snap)), snap)
	if err := writeFileAtomic(s.snapPath(snap.ID), head, snap.Detector); err != nil {
		return fmt.Errorf("persist: snapshot %q: %w", snap.ID, err)
	}
	// The snapshot now covers every logged vector below Seq; drop the WAL.
	// A crash before this truncate is harmless — recovery filters replay by
	// sequence number.
	return s.rotateWAL(snap.ID)
}

// writeFileAtomic publishes parts, concatenated, at path via a temp
// file, fsync and rename.
func writeFileAtomic(path string, parts ...[]byte) error {
	tmp := path + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("create temp: %w", err)
	}
	for _, p := range parts {
		if _, err = f.Write(p); err != nil {
			break
		}
	}
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
		return fmt.Errorf("write: %w", err)
	}
	return nil
}

// ReadSnapshot loads and verifies a stream's snapshot. A missing file
// returns os.ErrNotExist.
func (s *Store) ReadSnapshot(id string) (*StreamSnapshot, error) {
	snap, _, err := s.ReadSnapshotInto(id, nil)
	return snap, err
}

// ReadSnapshotInto is ReadSnapshot through a caller-owned buffer: the
// file is read into buf[:0], grown when too small, and the snapshot's
// blobs alias it. The buffer comes back on failure too.
func (s *Store) ReadSnapshotInto(id string, buf []byte) (*StreamSnapshot, []byte, error) {
	f, err := os.Open(s.snapPath(id))
	if err != nil {
		return nil, buf, err
	}
	defer f.Close()
	var snap *StreamSnapshot
	info, err := f.Stat()
	if err == nil {
		buf = slices.Grow(buf[:0], int(info.Size()))[:info.Size()]
		if _, err = io.ReadFull(f, buf); err == nil {
			snap, err = DecodeSnapshotFile(buf)
		}
	}
	if err != nil {
		return nil, buf, fmt.Errorf("persist: snapshot %q: %w", id, err)
	}
	return snap, buf, nil
}

// Snapshot file layout (all integers little-endian):
//
//	magic     8 bytes  "SADSNAP1"
//	version   uint32   Version
//	size      uint64   body length
//	crc32c    uint32   over the body
//	body      seq uint64 · ready int64 · alerts int64 ·
//	          id, threshold, detector — each a uint64 length and its bytes
//
// The detector blob comes last so a writer can stream it from the
// caller's buffer behind a short head.
// envelopeSize is the length of the snapshot file header: an 8-byte
// magic, the version, the body length and the body's CRC-32C.
const envelopeSize = 8 + 4 + 8 + 4

// putEnvelope fills hdr[:envelopeSize]; checkEnvelope is its reader.
func putEnvelope(hdr []byte, magic string, size int, sum uint32) {
	copy(hdr, magic)
	binary.LittleEndian.PutUint32(hdr[8:], Version)
	binary.LittleEndian.PutUint64(hdr[12:], uint64(size))
	binary.LittleEndian.PutUint32(hdr[20:], sum)
}

// snapshotHeadSize is the length of everything in front of the detector
// blob's bytes.
func snapshotHeadSize(snap *StreamSnapshot) int {
	return envelopeSize + 3*8 + 3*8 + len(snap.ID) + len(snap.Threshold)
}

// appendSnapshotHead appends the file header and the body up to (and
// including) the detector blob's length; the CRC covers the detector
// bytes too, folded in incrementally.
func appendSnapshotHead(dst []byte, snap *StreamSnapshot) []byte {
	start := len(dst)
	dst = append(dst, make([]byte, envelopeSize)...) // filled once the body is known
	body := len(dst)
	dst = wire.AppendUint64(dst, snap.Seq)
	dst = wire.AppendInt(dst, snap.Ready)
	dst = wire.AppendInt(dst, snap.Alerts)
	dst = wire.AppendString(dst, snap.ID)
	dst = wire.AppendBytes(dst, snap.Threshold)
	dst = wire.AppendInt(dst, len(snap.Detector))
	sum := crc32.Update(crc32.Checksum(dst[body:], castagnoli), castagnoli, snap.Detector)
	putEnvelope(dst[start:], snapMagic, len(dst)-body+len(snap.Detector), sum)
	return dst
}

// EncodeSnapshotFile renders a snapshot in the exact on-disk file format
// (magic, version, CRC, payload) without writing it, for ops endpoints
// that stream checkpoints to backups and for cluster migration.
func EncodeSnapshotFile(snap *StreamSnapshot) ([]byte, error) {
	file := make([]byte, 0, snapshotHeadSize(snap)+len(snap.Detector))
	return append(appendSnapshotHead(file, snap), snap.Detector...), nil
}

// Fingerprint is the CRC-32C of the snapshot's file body, the checksum
// its file header carries. Cluster migration compares the fingerprints
// of the source's and the target's live states: equal bodies are equal
// sequence boundaries, counters, thresholder and detector bytes.
func Fingerprint(snap *StreamSnapshot) uint32 {
	head := appendSnapshotHead(make([]byte, 0, snapshotHeadSize(snap)), snap)
	return binary.LittleEndian.Uint32(head[envelopeSize-4:])
}

// checkEnvelope verifies a file's magic, version, size and CRC and
// returns its body, a sub-slice of raw.
func checkEnvelope(raw []byte, magic string) ([]byte, error) {
	if len(raw) < envelopeSize {
		return nil, fmt.Errorf("truncated (%d bytes)", len(raw))
	}
	if string(raw[:len(magic)]) != magic {
		return nil, fmt.Errorf("wrong magic")
	}
	hdr := raw[len(magic):]
	if v := binary.LittleEndian.Uint32(hdr[0:4]); v != Version {
		return nil, ErrFormatVersion{File: v, Build: Version}
	}
	size := binary.LittleEndian.Uint64(hdr[4:12])
	sum := binary.LittleEndian.Uint32(hdr[12:16])
	body := hdr[16:]
	if uint64(len(body)) != size {
		return nil, fmt.Errorf("truncated: header says %d payload bytes, file has %d", size, len(body))
	}
	if crc32.Checksum(body, castagnoli) != sum {
		return nil, fmt.Errorf("failed CRC check")
	}
	return body, nil
}

// DecodeSnapshotFile verifies and decodes a snapshot in the on-disk file
// format — the inverse of EncodeSnapshotFile. Cluster migration ships
// these bytes over the wire; the magic, version and CRC checks run on
// the receiving node exactly as they would on a restart. The returned
// snapshot's Detector and Threshold alias raw.
func DecodeSnapshotFile(raw []byte) (*StreamSnapshot, error) {
	body, err := checkEnvelope(raw, snapMagic)
	if err != nil {
		return nil, err
	}
	rd := wire.NewReader(body)
	snap := &StreamSnapshot{Seq: rd.Uint64(), Ready: rd.Int(), Alerts: rd.Int(), ID: rd.String()}
	snap.Threshold, snap.Detector = rd.Section(), rd.Section()
	if err := rd.Done(); err != nil {
		return nil, fmt.Errorf("decode: %w", err)
	}
	return snap, nil
}

// walHandle returns (opening if needed) the stream's append handle.
// Callers must hold s.mu.
func (s *Store) walHandle(id string) (*os.File, error) {
	if f, ok := s.wals[id]; ok {
		return f, nil
	}
	f, err := os.OpenFile(s.walPath(id), os.O_WRONLY|os.O_CREATE|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("persist: open WAL: %w", err)
	}
	info, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("persist: stat WAL: %w", err)
	}
	if info.Size() == 0 {
		var hdr [12]byte
		copy(hdr[:8], walMagic)
		binary.LittleEndian.PutUint32(hdr[8:12], Version)
		if _, err := f.Write(hdr[:]); err != nil {
			f.Close()
			return nil, fmt.Errorf("persist: write WAL header: %w", err)
		}
	}
	s.wals[id] = f
	return f, nil
}

// Append logs one observed vector for a stream. Seq is the index of the
// vector in the stream's lifetime (0-based).
func (s *Store) Append(id string, seq uint64, vector []float64) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.walHandle(id)
	if err != nil {
		return err
	}
	s.rec = appendRecord(s.rec[:0], seq, vector)
	if _, err := f.Write(s.rec); err != nil {
		return fmt.Errorf("persist: append WAL: %w", err)
	}
	if s.SyncWAL {
		if err := f.Sync(); err != nil {
			return fmt.Errorf("persist: sync WAL: %w", err)
		}
	}
	return nil
}

// appendRecord appends one WAL record:
//
//	crc32c  uint32   over the remaining fields
//	count   uint32   vector length
//	seq     uint64
//	vector  count × float64 bits
func appendRecord(dst []byte, seq uint64, vector []float64) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(dst, 0)
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(vector)))
	dst = wire.AppendRawFloat64s(wire.AppendUint64(dst, seq), vector)
	binary.LittleEndian.PutUint32(dst[start:], crc32.Checksum(dst[start+4:], castagnoli))
	return dst
}

// ReleaseWAL closes a stream's append handle, if open, so that a stream
// nobody appends to holds no descriptor; the next Append reopens it.
func (s *Store) ReleaseWAL(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f, ok := s.wals[id]; ok {
		f.Close()
		delete(s.wals, id)
	}
}

// rotateWAL closes and truncates a stream's WAL after a snapshot.
func (s *Store) rotateWAL(id string) error {
	s.ReleaseWAL(id)
	if err := os.Remove(s.walPath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: rotate WAL: %w", err)
	}
	return nil
}

// ReadWAL returns the stream's logged vectors in append order. A missing
// WAL returns an empty slice. A torn final record returns the valid prefix
// together with ErrTornWAL; any other inconsistency (bad magic, version,
// mid-file CRC failure) returns the valid prefix and a hard error so the
// caller can report it — nothing is ever silently half-loaded.
func (s *Store) ReadWAL(id string) ([]WALRecord, error) {
	raw, err := os.ReadFile(s.walPath(id))
	if err != nil {
		if errors.Is(err, os.ErrNotExist) {
			return nil, nil
		}
		return nil, fmt.Errorf("persist: read WAL: %w", err)
	}
	return decodeWAL(id, raw)
}

// decodeWAL parses a WAL file's bytes; id only labels errors.
func decodeWAL(id string, raw []byte) ([]WALRecord, error) {
	if len(raw) == 0 {
		return nil, nil
	}
	if len(raw) < 12 {
		return nil, fmt.Errorf("%w: header cut at %d bytes", ErrTornWAL, len(raw))
	}
	if string(raw[:8]) != walMagic {
		return nil, fmt.Errorf("persist: WAL %q has wrong magic", id)
	}
	if v := binary.LittleEndian.Uint32(raw[8:12]); v != Version {
		return nil, fmt.Errorf("persist: WAL %q: %w", id, ErrFormatVersion{File: v, Build: Version})
	}
	var recs []WALRecord
	off := 12
	for off < len(raw) {
		if len(raw)-off < 16 {
			return recs, fmt.Errorf("%w: %d trailing bytes", ErrTornWAL, len(raw)-off)
		}
		sum := binary.LittleEndian.Uint32(raw[off : off+4])
		n := int(binary.LittleEndian.Uint32(raw[off+4 : off+8]))
		seq := binary.LittleEndian.Uint64(raw[off+8 : off+16])
		end := off + 16 + 8*n
		if n < 0 || end < off || end > len(raw) {
			return recs, fmt.Errorf("%w: record at offset %d cut short", ErrTornWAL, off)
		}
		if crc32.Checksum(raw[off+4:end], castagnoli) != sum {
			return recs, fmt.Errorf("persist: WAL %q record at offset %d failed CRC check", id, off)
		}
		vec := make([]float64, n)
		for i := range vec {
			vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(raw[off+16+8*i:]))
		}
		recs = append(recs, WALRecord{Seq: seq, Vector: vec})
		off = end
	}
	return recs, nil
}

// Remove deletes all persisted state of one stream.
func (s *Store) Remove(id string) error {
	s.ReleaseWAL(id)
	first := s.RemovePage(id)
	for _, p := range []string{s.snapPath(id), s.walPath(id)} {
		if err := os.Remove(p); err != nil && !errors.Is(err, os.ErrNotExist) && first == nil {
			first = err
		}
	}
	return first
}
