package mem

import (
	"encoding/binary"
	"fmt"
	"slices"
)

// Storage is the sparse functional byte store backing the whole physical
// address space. Pages are materialized on first touch and read as zeroes
// before that, like real zero-filled memory.
type Storage struct {
	pages map[uint64]*[PageSize]byte

	// memo is a direct-mapped cache of recent non-nil page lookups,
	// indexed by page number, so pages touched in turn (a stack page and
	// its tracker's bitmap page) do not evict each other. Pages are never
	// removed or replaced, so a memoized page never goes stale; a nil
	// lookup never fills it, so a page created later is always found.
	memo [memoSlots]memoSlot
}

// memoSlots is the page memo's size, a power of two.
const memoSlots = 64

type memoSlot struct {
	base uint64
	page *[PageSize]byte
}

// NewStorage returns an empty store.
func NewStorage() *Storage {
	return &Storage{pages: make(map[uint64]*[PageSize]byte)}
}

func (s *Storage) page(addr uint64, create bool) *[PageSize]byte {
	base := PageOf(addr)
	m := &s.memo[base/PageSize%memoSlots]
	if m.page != nil && m.base == base {
		return m.page
	}
	p := s.pages[base]
	if p == nil {
		if !create {
			return nil
		}
		p = new([PageSize]byte)
		s.pages[base] = p
	}
	m.base, m.page = base, p
	return p
}

// Read copies len(buf) bytes starting at addr into buf. Unmaterialized
// pages read as zero.
func (s *Storage) Read(addr uint64, buf []byte) {
	for len(buf) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(buf)) < n {
			n = uint64(len(buf))
		}
		if p := s.page(addr, false); p != nil {
			copy(buf[:n], p[off:off+n])
		} else {
			for i := uint64(0); i < n; i++ {
				buf[i] = 0
			}
		}
		buf = buf[n:]
		addr += n
	}
}

// Write stores data starting at addr.
func (s *Storage) Write(addr uint64, data []byte) {
	for len(data) > 0 {
		off := addr & (PageSize - 1)
		n := PageSize - off
		if uint64(len(data)) < n {
			n = uint64(len(data))
		}
		p := s.page(addr, true)
		copy(p[off:off+n], data[:n])
		data = data[n:]
		addr += n
	}
}

// ReadU64 reads a little-endian 64-bit word at addr.
func (s *Storage) ReadU64(addr uint64) uint64 {
	var buf [8]byte
	s.Read(addr, buf[:])
	return binary.LittleEndian.Uint64(buf[:])
}

// WriteU64 writes a little-endian 64-bit word at addr.
func (s *Storage) WriteU64(addr uint64, v uint64) {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], v)
	s.Write(addr, buf[:])
}

// ReadU32 reads a little-endian 32-bit word at addr.
func (s *Storage) ReadU32(addr uint64) uint32 {
	var buf [4]byte
	s.Read(addr, buf[:])
	return binary.LittleEndian.Uint32(buf[:])
}

// WriteU32 writes a little-endian 32-bit word at addr.
func (s *Storage) WriteU32(addr uint64, v uint32) {
	var buf [4]byte
	binary.LittleEndian.PutUint32(buf[:], v)
	s.Write(addr, buf[:])
}

// Copy moves n bytes from src to dst inside the store with memmove
// semantics: overlapping ranges copy as if through a temporary buffer.
// It copies page to page, in chunks that stay inside one source and one
// destination page, and materializes every destination page, as Write
// would.
func (s *Storage) Copy(dst, src uint64, n int) {
	left := uint64(max(n, 0))
	if dst > src && dst-src < left {
		// dst overlaps the tail of src: copy from the end down, so no
		// chunk reads bytes an earlier chunk already overwrote.
		for left > 0 {
			k := min(left, (src+left-1)&(PageSize-1)+1, (dst+left-1)&(PageSize-1)+1)
			left -= k
			s.copyChunk(dst+left, src+left, k)
		}
		return
	}
	for left > 0 {
		k := min(left, PageSize-src&(PageSize-1), PageSize-dst&(PageSize-1))
		s.copyChunk(dst, src, k)
		dst, src, left = dst+k, src+k, left-k
	}
}

// copyChunk copies n bytes that lie inside one source page and one
// destination page; an unmaterialized source page reads as zero.
func (s *Storage) copyChunk(dst, src, n uint64) {
	d := s.page(dst, true)[dst&(PageSize-1):][:n]
	if p := s.page(src, false); p != nil {
		copy(d, p[src&(PageSize-1):][:n])
	} else {
		clear(d)
	}
}

// MaterializedPages returns how many pages are currently backed, a proxy
// for simulator memory footprint.
func (s *Storage) MaterializedPages() int { return len(s.pages) }

// Backed reports whether the page holding addr is materialized.
func (s *Storage) Backed(addr uint64) bool { return s.pages[PageOf(addr)] != nil }

// PageAddrs returns the base address of every materialized page, in
// ascending order.
func (s *Storage) PageAddrs() []uint64 {
	out := make([]uint64, 0, len(s.pages))
	for base := range s.pages { //prosperlint:ignore maprange keys sorted before use
		out = append(out, base)
	}
	slices.Sort(out)
	return out
}

// CloneRange returns a new Storage holding deep copies of s's
// materialized pages inside [base, base+size). Pages outside the range
// are absent from the clone; the range must be page-aligned.
func (s *Storage) CloneRange(base, size uint64) *Storage {
	if base%PageSize != 0 || size%PageSize != 0 {
		panic(fmt.Sprintf("mem: CloneRange not page aligned: %#x+%#x", base, size))
	}
	out := NewStorage()
	for pageBase, p := range s.pages { //prosperlint:ignore maprange keyed writes only
		if pageBase >= base && pageBase < base+size {
			cp := new([PageSize]byte)
			*cp = *p
			out.pages[pageBase] = cp
		}
	}
	return out
}
