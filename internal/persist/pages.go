package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// Page files hold the warm tier's paged-out window state: a detector's
// PageOut blob, written when the tiering policy demotes a stream from hot
// to warm and read back on the next observe. They are a cache, not the
// durability story — a warm demotion writes a full snapshot first, so a
// page file can always be discarded and the stream rebuilt from snapshot
// + WAL. IDs() deliberately ignores them for the same reason.
//
//	<escaped-id>.page — magic, version, size, CRC-32C, payload

const (
	pageMagic  = "SADPAGE1"
	pageSuffix = ".page"
)

func (s *Store) pagePath(id string) string { return filepath.Join(s.dir, escapeID(id)+pageSuffix) }

// WritePage atomically persists a stream's paged-out window state
// (temp file + rename; no fsync — page files are reconstructible).
func (s *Store) WritePage(id string, blob []byte) error {
	var hdr [envelopeSize]byte
	putEnvelope(hdr[:], pageMagic, len(blob), crc32.Checksum(blob, castagnoli))
	if err := writeFileAtomic(s.pagePath(id), false, hdr[:], blob); err != nil {
		return fmt.Errorf("persist: page %q: %w", id, err)
	}
	return nil
}

// ReadPage loads and verifies a stream's page file. A missing file
// returns os.ErrNotExist (callers fall back to snapshot + WAL restore).
func (s *Store) ReadPage(id string) ([]byte, error) {
	raw, err := os.ReadFile(s.pagePath(id))
	if err != nil {
		return nil, err
	}
	body, err := checkEnvelope(raw, pageMagic)
	if err != nil {
		return nil, fmt.Errorf("persist: page %q: %w", id, err)
	}
	return body, nil
}

// RemovePage deletes a stream's page file; missing is not an error.
func (s *Store) RemovePage(id string) error {
	if err := os.Remove(s.pagePath(id)); err != nil && !errors.Is(err, os.ErrNotExist) {
		return fmt.Errorf("persist: remove page: %w", err)
	}
	return nil
}
