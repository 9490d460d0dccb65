package kernel

import (
	"fmt"

	"prosper/internal/mem"
	"prosper/internal/persist"
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
	s := &superblock{storage: st}
	if m := s.magic(); m != superMagic {
		rep.problemf("superblock: bad magic %#x", m)
		return rep
	}
	count, err := s.procCount()
	if err != nil {
		rep.problemf("%v", err)
		return rep
	}
	cursor := s.cursor()
	if cursor < superBase+mem.PageSize || cursor > mem.NVMBase+mem.NVMSize/2 {
		rep.problemf("superblock: NVM cursor %#x out of range", cursor)
	}
	for i := uint64(0); i < count; i++ {
		name, hdr := s.proc(i)
		if name == "" {
			rep.problemf("proc record %d: empty name", i)
			continue
		}
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
	h, err := readProcHeader(st, hdrAddr)
	if err != nil {
		rep.problemf("proc %q: %v", name, err)
		return
	}
	if h.stackReserve == 0 || h.stackReserve > 1<<30 {
		rep.problemf("proc %q: implausible stack reserve %d", name, h.stackReserve)
	}
	if h.heap.ImageBase != 0 {
		rep.Problems = append(rep.Problems, persist.CheckSegment(st, name+"/heap", h.heap.MetaBase, h.heap.MetaSize, h.heapSize)...)
		rep.Segments++
	}
	for i, th := range h.threads {
		if th.stack.MetaBase == 0 || th.stack.MetaBase >= cursor {
			rep.problemf("proc %q thread %d: meta base %#x invalid", name, i, th.stack.MetaBase)
			continue
		}
		if th.regArea == 0 || th.regArea >= cursor {
			rep.problemf("proc %q thread %d: register area %#x invalid", name, i, th.regArea)
		}
		label := fmt.Sprintf("%s/stack%d", name, i)
		rep.Problems = append(rep.Problems, persist.CheckSegment(st, label, th.stack.MetaBase, th.stack.MetaSize, h.stackReserve)...)
		rep.Segments++
	}
}
