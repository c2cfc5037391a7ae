package persist

import (
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"slices"
	"sync"
)

// Pages — the warm tier's paged-out window state, a detector's PageOut
// blob — live in one swap file, each in a 4 KiB-aligned slot found
// through an in-memory index: a tier move is one pwrite or pread. Pages
// are a cache and never outlive the process: restore is snapshot + WAL,
// and Open deletes the swap file (or older builds' <id>.page files).
const (
	swapName   = "pages.swap"
	pageSuffix = ".page"
	slotAlign  = 4096
)

// pageSlot locates one page in the swap file.
type pageSlot struct {
	off, size int64 // size is a multiple of slotAlign
	n         int   // length of the page
	crc       uint32
}

// swapFile is the slot store. mu guards the tables, not the I/O: callers
// serialize operations on one id, and a slot changes hands only after
// its page was removed.
type swapFile struct {
	mu    sync.Mutex
	f     *os.File            // created by the first WritePage
	end   int64               // where the last slot, and the file, ends
	index map[string]pageSlot // id → its page
	free  map[int64][]int64   // slot size → offsets of free slots
}

// WritePage stores a stream's paged-out window state, replacing any page
// the stream already has. No fsync: pages are reconstructible.
func (s *Store) WritePage(id string, blob []byte) error {
	if err := s.RemovePage(id); err != nil {
		return err
	}
	p := &s.swap
	p.mu.Lock()
	if p.f == nil {
		f, err := os.OpenFile(filepath.Join(s.dir, swapName), os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			p.mu.Unlock()
			return fmt.Errorf("persist: page %q: %w", id, err)
		}
		p.f, p.index, p.free = f, make(map[string]pageSlot), make(map[int64][]int64)
	}
	size := max(slotAlign, (int64(len(blob))+slotAlign-1)&^(slotAlign-1))
	sl := pageSlot{off: p.end, size: size, n: len(blob), crc: crc32.Checksum(blob, castagnoli)}
	if l := p.free[size]; len(l) > 0 {
		sl.off, p.free[size] = l[len(l)-1], l[:len(l)-1]
	} else {
		p.end += size
	}
	p.index[id] = sl
	p.mu.Unlock()
	// A failed write leaves the slot to the stream's next WritePage or
	// RemovePage; its CRC keeps the bytes from being read back.
	if _, err := p.f.WriteAt(blob, sl.off); err != nil {
		return fmt.Errorf("persist: page %q: %w", id, err)
	}
	return nil
}

// ReadPageInto reads a stream's page into buf[:0], grown when too small,
// and verifies it against the CRC taken at WritePage. On failure the
// buffer comes back empty; a stream with no page fails with
// os.ErrNotExist (callers fall back to snapshot + WAL).
func (s *Store) ReadPageInto(id string, buf []byte) ([]byte, error) {
	p := &s.swap
	p.mu.Lock()
	sl, ok := p.index[id]
	p.mu.Unlock()
	err := os.ErrNotExist
	if ok {
		buf = slices.Grow(buf[:0], sl.n)[:sl.n]
		if _, err = p.f.ReadAt(buf, sl.off); err == nil && crc32.Checksum(buf, castagnoli) != sl.crc {
			err = errors.New("failed CRC check")
		}
	}
	if err != nil {
		return buf[:0], fmt.Errorf("persist: page %q: %w", id, err)
	}
	return buf, nil
}

// ReadPage is ReadPageInto with a buffer of its own.
func (s *Store) ReadPage(id string) ([]byte, error) { return s.ReadPageInto(id, nil) }

// RemovePage frees a stream's slot; a stream with no page is not an
// error. The file's last slot goes back to the filesystem, with the last
// page goes the whole file, any other slot is kept for reuse.
func (s *Store) RemovePage(id string) error {
	p := &s.swap
	p.mu.Lock()
	defer p.mu.Unlock()
	sl, ok := p.index[id]
	delete(p.index, id)
	switch {
	case !ok:
		return nil
	case len(p.index) == 0:
		p.end = 0
		clear(p.free)
	case sl.off+sl.size == p.end:
		p.end = sl.off
	default:
		p.free[sl.size] = append(p.free[sl.size], sl.off)
		return nil
	}
	if err := p.f.Truncate(p.end); err != nil {
		return fmt.Errorf("persist: trim swap file: %w", err)
	}
	return nil
}

// SwapBytes is the current size of the swap file.
func (s *Store) SwapBytes() int64 {
	s.swap.mu.Lock()
	defer s.swap.mu.Unlock()
	return s.swap.end
}
