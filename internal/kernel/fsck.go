package kernel

import (
	"fmt"

	"prosper/internal/mem"
)

// FsckReport is the result of validating the NVM checkpoint areas —
// the recovery-time integrity check a production implementation runs
// before trusting persisted state.
type FsckReport struct {
	Processes int
	Segments  int
	Problems  []string
}

// OK reports whether no inconsistencies were found.
func (r FsckReport) OK() bool { return len(r.Problems) == 0 }

func (r *FsckReport) problemf(format string, args ...interface{}) {
	r.Problems = append(r.Problems, fmt.Sprintf(format, args...))
}

// Fsck validates every persisted structure reachable from the NVM
// superblock on the given storage: the superblock itself, the process
// directory, per-process headers, and each segment's commit metadata.
// It is purely functional (no timing) and safe to run on a crashed image.
func Fsck(st *mem.Storage) FsckReport {
	var rep FsckReport
	if st.ReadU64(superBase) != superMagic {
		rep.problemf("superblock: bad magic %#x", st.ReadU64(superBase))
		return rep
	}
	count := st.ReadU64(superBase + 8)
	if count > maxProcRecs {
		rep.problemf("superblock: process count %d exceeds capacity", count)
		return rep
	}
	cursor := st.ReadU64(superBase + 16)
	if cursor < superBase+mem.PageSize || cursor > mem.NVMBase+mem.NVMSize/2 {
		rep.problemf("superblock: NVM cursor %#x out of range", cursor)
	}
	s := &superblock{storage: st}
	for i := 0; i < int(count); i++ {
		rec := s.recAddr(i)
		var nameBuf [procNameLen]byte
		st.Read(rec, nameBuf[:])
		name := cstr(nameBuf[:])
		if name == "" {
			rep.problemf("proc record %d: empty name", i)
			continue
		}
		hdr := st.ReadU64(rec + procNameLen)
		if hdr < superBase+mem.PageSize || hdr >= cursor {
			rep.problemf("proc %q: header %#x outside allocated NVM", name, hdr)
			continue
		}
		rep.Processes++
		fsckProcess(st, name, hdr, cursor, &rep)
	}
	return rep
}

func fsckProcess(st *mem.Storage, name string, hdrAddr, cursor uint64, rep *FsckReport) {
	hdr := make([]byte, mem.PageSize)
	st.Read(hdrAddr, hdr)
	nThreads := mustU64(hdr, 8)
	stackReserve := mustU64(hdr, 16)
	heapSize := mustU64(hdr, 24)
	if nThreads == 0 || nThreads > 64 {
		rep.problemf("proc %q: implausible thread count %d", name, nThreads)
		return
	}
	if stackReserve == 0 || stackReserve > 1<<30 {
		rep.problemf("proc %q: implausible stack reserve %d", name, stackReserve)
	}
	if heapImage := mustU64(hdr, 32); heapImage != 0 {
		fsckSegmentMeta(st, name+"/heap", mustU64(hdr, 40), mustU64(hdr, 48), heapSize, rep)
		rep.Segments++
	}
	for i := 0; i < int(nThreads); i++ {
		off := 64 + i*64
		metaBase := mustU64(hdr, off+8)
		metaSize := mustU64(hdr, off+16)
		regArea := mustU64(hdr, off+24)
		if metaBase == 0 || metaBase >= cursor {
			rep.problemf("proc %q thread %d: meta base %#x invalid", name, i, metaBase)
			continue
		}
		if regArea == 0 || regArea >= cursor {
			rep.problemf("proc %q thread %d: register area %#x invalid", name, i, regArea)
		}
		fsckSegmentMeta(st, fmt.Sprintf("%s/stack%d", name, i), metaBase, metaSize, stackReserve, rep)
		rep.Segments++
	}
}

// fsckSegmentMeta validates one segment's commit record and entry table.
func fsckSegmentMeta(st *mem.Storage, label string, metaBase, metaSize, segSize uint64, rep *FsckReport) {
	phase := st.ReadU64(metaBase)
	if phase > 2 {
		rep.problemf("%s: invalid commit phase %d", label, phase)
		return
	}
	if phase == 0 {
		return // never checkpointed
	}
	// The entry table and totals are only guaranteed durable while the
	// commit record is in the temp-valid phase: the step-1 commit write
	// fences them, and recovery replays from them. Once the record is in
	// the applied phase the table may legitimately be mid-overwrite by the
	// next checkpoint's in-flight gather, so it is not validated then.
	if phase == 1 {
		count := st.ReadU64(metaBase + 16)
		total := st.ReadU64(metaBase + 24)
		entryBytes := count * 16
		dataBase := metaBase + 64 + ((entryBytes + 63) &^ 63)
		if dataBase+total > metaBase+metaSize {
			rep.problemf("%s: payload (%d entries, %d bytes) overflows meta area", label, count, total)
			return
		}
		var sum uint64
		for i := uint64(0); i < count; i++ {
			off := st.ReadU64(metaBase + 64 + i*16)
			size := st.ReadU64(metaBase + 64 + i*16 + 8)
			if size == 0 {
				rep.problemf("%s: entry %d has zero size", label, i)
				return
			}
			if off+size > segSize {
				rep.problemf("%s: entry %d [%#x+%d] outside segment (%d bytes)", label, i, off, size, segSize)
				return
			}
			sum += size
		}
		if sum != total {
			rep.problemf("%s: entry sizes sum to %d, header says %d", label, sum, total)
		}
	}
	minOff := st.ReadU64(metaBase + 32)
	if minOff > segSize {
		rep.problemf("%s: image low-water mark %d beyond segment", label, minOff-1)
	}
}
