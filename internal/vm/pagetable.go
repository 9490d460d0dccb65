// Package vm implements the virtual memory substrate of the simulated
// machine: a 4-level x86-64-style page table with accessed/dirty bits, a
// TLB model, and address spaces built from VMAs with demand paging hooks.
//
// The package is purely functional; timing (walk latency, TLB miss cost)
// is charged by the machine's page walker, which reads the synthetic
// physical addresses each table node carries. Host profiling follows the
// same split: the walker's continuations and page-fault events are born
// sim.CompVM, so engine event counts attribute walk/fault work here even
// though this package schedules nothing itself.
package vm

import "fmt"

// PTE permission and status flags, mirroring the x86-64 bits the paper's
// mechanisms rely on (present, writable, accessed, dirty, plus a soft
// "tracked" bit used by the write-protection tracker).
const (
	FlagPresent uint64 = 1 << 0
	FlagWrite   uint64 = 1 << 1
	FlagUser    uint64 = 1 << 2
	FlagAccess  uint64 = 1 << 5
	FlagDirty   uint64 = 1 << 6
	FlagSoft    uint64 = 1 << 9 // software-defined (SoftDirty-style)
)

// PTE is one page-table entry: the physical frame base plus flag bits.
type PTE struct {
	Frame uint64
	Flags uint64
}

// Present reports whether the entry maps a frame.
func (p *PTE) Present() bool { return p.Flags&FlagPresent != 0 }

// Writable reports whether the entry currently permits stores.
func (p *PTE) Writable() bool { return p.Flags&FlagWrite != 0 }

// Dirty reports the hardware dirty bit.
func (p *PTE) Dirty() bool { return p.Flags&FlagDirty != 0 }

const (
	levels       = 4
	indexBits    = 9
	entriesPerLv = 1 << indexBits
	pageShift    = 12
	vaBits       = pageShift + levels*indexBits // 48-bit canonical VA
)

// MaxVirtual is one past the highest representable virtual address.
const MaxVirtual uint64 = 1 << vaBits

type node struct {
	physBase uint64 // synthetic physical address of this table page
	children [entriesPerLv]*node
	ptes     []PTE // allocated only at the leaf level
}

// FrameSource supplies physical page frames for page-table nodes so that
// hardware walks have real addresses to read.
type FrameSource func() uint64

// PageTable is a 4-level radix page table.
//
// Table nodes are never freed, and Unmap zeroes a leaf entry in place, so
// a *PTE that Lookup or Walk returned keeps naming vaddr's entry for the
// life of the table: the page walker reads a walk's flags through it when
// the walk finishes.
type PageTable struct {
	root     *node
	frames   FrameSource
	mapped   int
	NodePage func(addr uint64) // optional hook when a node page is created
}

// NewPageTable builds an empty table; frames must return a fresh physical
// frame per call and must not be nil.
func NewPageTable(frames FrameSource) *PageTable {
	if frames == nil {
		panic("vm: nil frame source")
	}
	pt := &PageTable{frames: frames}
	pt.root = pt.newNode(false)
	return pt
}

func (pt *PageTable) newNode(leaf bool) *node {
	n := &node{physBase: pt.frames()}
	if leaf {
		n.ptes = make([]PTE, entriesPerLv)
	}
	if pt.NodePage != nil {
		pt.NodePage(n.physBase)
	}
	return n
}

func indexAt(vaddr uint64, level int) int {
	shift := pageShift + indexBits*(levels-1-level)
	return int((vaddr >> shift) & (entriesPerLv - 1))
}

func checkVA(vaddr uint64) {
	if vaddr >= MaxVirtual {
		panic(fmt.Sprintf("vm: non-canonical virtual address %#x", vaddr))
	}
}

// Mapped returns the number of present leaf mappings.
func (pt *PageTable) Mapped() int { return pt.mapped }

// Map installs a translation from the page containing vaddr to frame with
// the given flags (FlagPresent is implied).
func (pt *PageTable) Map(vaddr, frame, flags uint64) {
	checkVA(vaddr)
	n := pt.root
	for level := 0; level < levels-1; level++ {
		idx := indexAt(vaddr, level)
		if n.children[idx] == nil {
			n.children[idx] = pt.newNode(level == levels-2)
		}
		n = n.children[idx]
	}
	pte := &n.ptes[indexAt(vaddr, levels-1)]
	if !pte.Present() {
		pt.mapped++
	}
	*pte = PTE{Frame: frame &^ 0xfff, Flags: flags | FlagPresent}
}

// Unmap removes the translation for the page containing vaddr and returns
// the frame it mapped, or ok=false if nothing was mapped.
func (pt *PageTable) Unmap(vaddr uint64) (frame uint64, ok bool) {
	pte := pt.Lookup(vaddr)
	if pte == nil || !pte.Present() {
		return 0, false
	}
	frame = pte.Frame
	*pte = PTE{}
	pt.mapped--
	return frame, true
}

// Lookup returns a pointer to the PTE for vaddr, or nil if no leaf table
// exists on its path. The entry may be non-present.
func (pt *PageTable) Lookup(vaddr uint64) *PTE {
	checkVA(vaddr)
	n := pt.root
	for level := 0; level < levels-1; level++ {
		n = n.children[indexAt(vaddr, level)]
		if n == nil {
			return nil
		}
	}
	return &n.ptes[indexAt(vaddr, levels-1)]
}

// Walk descends the table once for vaddr, as a hardware walker would.
// It fills dst with the physical addresses of the entries it reads, one
// per level down to the first missing table, and returns how many it
// filled (1..levels) and leaf, the leaf PTE it reached (present or not),
// or nil when a level was missing. By the table's invariant leaf stays
// Lookup(vaddr) while the walk is timed; a nil leaf can go stale, when a
// later Map creates the missing levels.
func (pt *PageTable) Walk(vaddr uint64, dst *[levels]uint64) (n int, leaf *PTE) {
	checkVA(vaddr)
	nd := pt.root
	for level := 0; level < levels-1; level++ {
		idx := indexAt(vaddr, level)
		dst[n] = nd.physBase + uint64(idx)*8
		n++
		if nd = nd.children[idx]; nd == nil {
			return n, nil
		}
	}
	idx := indexAt(vaddr, levels-1)
	dst[n] = nd.physBase + uint64(idx)*8
	return n + 1, &nd.ptes[idx]
}

// Translate performs a functional walk: on success it returns the physical
// address corresponding to vaddr and the leaf PTE.
func (pt *PageTable) Translate(vaddr uint64) (paddr uint64, pte *PTE, ok bool) {
	pte = pt.Lookup(vaddr)
	if pte == nil || !pte.Present() {
		return 0, pte, false
	}
	return pte.Frame | (vaddr & 0xfff), pte, true
}

// VisitRange invokes fn for every present PTE whose page base lies in
// [lo, hi), skipping absent subtrees, in ascending address order.
func (pt *PageTable) VisitRange(lo, hi uint64, fn func(pageVA uint64, pte *PTE)) {
	if hi > MaxVirtual {
		hi = MaxVirtual
	}
	if lo >= hi {
		return
	}
	pt.visit(pt.root, 0, 0, lo, hi, fn)
}

func (pt *PageTable) visit(n *node, level int, base uint64, lo, hi uint64, fn func(uint64, *PTE)) {
	span := uint64(1) << (pageShift + indexBits*(levels-1-level)) // bytes per entry at this level
	for i := 0; i < entriesPerLv; i++ {
		entryBase := base + uint64(i)*span
		if entryBase+span <= lo || entryBase >= hi {
			continue
		}
		if level == levels-1 {
			pte := &n.ptes[i]
			if pte.Present() {
				fn(entryBase, pte)
			}
			continue
		}
		child := n.children[i]
		if child != nil {
			pt.visit(child, level+1, entryBase, lo, hi, fn)
		}
	}
}

// ClearFlagsRange clears the given flag bits on every present PTE in
// [lo, hi) and returns how many entries were touched. Used by dirty-bit
// tracking to reset D bits at interval start and by write-protection
// tracking to drop write permission.
func (pt *PageTable) ClearFlagsRange(lo, hi, flags uint64) int {
	n := 0
	pt.VisitRange(lo, hi, func(_ uint64, pte *PTE) {
		pte.Flags &^= flags
		n++
	})
	return n
}
