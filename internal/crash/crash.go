// Package crash sweeps power failures and recovery across many crash
// points of a running simulation.
//
// A power failure has one model in this repository: run the engine to
// the crash cycle (sim.Engine.RunUntil), take machine.Machine.CrashImage
// (only NVM writes whose timed device access completed, plus admitted
// writes under ADR, are in it; DRAM and the caches are gone), boot a
// fresh kernel on that image and recover the process with one
// kernel.Kernel.RecoverProcess call.
//
// The harness is differential, and simulates the spec once: a golden
// run records, at every checkpoint commit, the committed execution
// position and the full functional stack image, plus the cycle of every
// stack store and a journal of every input to the persistence domain
// (mem.Domain.Record). The crash image at each sampled engine cycle is
// then replayed from that journal (mem.Journal.Images): the domain's
// state is a pure function of its inputs, so the replayed image is the
// one RunUntil followed by CrashImage would leave. Each image is booted
// on a fresh kernel, and the recovered process is checked against the
// golden history:
//
//   - fsck of the surviving image must be clean at every crash point;
//   - the epoch S the thread recovers to must be P or P+1, where P is
//     the number of process commits durable at the crash instant
//     (P+1 happens when the crash lands between a segment's step-1
//     commit record and the process header commit: roll-forward);
//   - the restored execution position must be exactly the golden
//     position of epoch S;
//   - the recovered stack must match the golden stack of epoch S —
//     byte-for-byte for image-based mechanisms (prosper, dirtybit),
//     all-zero for the no-persistence baseline, and line-by-line for
//     in-place NVM mechanisms (ssp, romulus) excluding lines the
//     program stored to after commit S (those may legitimately hold
//     newer, uncommitted bytes);
//   - before the first durable commit, recovery must fail cleanly
//     ("no register checkpoint"), never fabricate a process.
//
// The sweep's own soundness is provable: running it against
// persist.NewBrokenFence (dirtybit with the commit fence deleted) must
// report violations, or the harness is not checking anything.
package crash

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"slices"
	"sort"

	"prosper/internal/kernel"
	"prosper/internal/machine"
	"prosper/internal/mem"
	"prosper/internal/persist"
	"prosper/internal/runner"
	"prosper/internal/sim"
	"prosper/internal/workload"
)

// Mechanisms lists the stack persistence mechanisms the sweep covers by
// default (the planted-bug fixture "brokenfence" is resolvable but
// deliberately not listed).
func Mechanisms() []string {
	return []string{"prosper", "dirtybit", "ssp", "romulus", "none"}
}

// mechanism resolves a sweep's mechanism name: persist.ByName's table
// plus the planted "brokenfence" bug.
func mechanism(name string) (persist.Factory, error) {
	if name == "brokenfence" {
		return persist.NewBrokenFence(persist.DirtybitConfig{}), nil
	}
	if f, ok := persist.ByName(name); ok {
		return f, nil
	}
	return nil, fmt.Errorf("crash: unknown mechanism %q", name)
}

// Config parameterizes one crash-point sweep of one mechanism.
type Config struct {
	// Mechanism is one of Mechanisms() or "brokenfence".
	Mechanism string
	// Points is how many crash points to sample (default 64). Half are
	// uniform over the sweep window, half cluster around commit instants
	// where the atomicity races live.
	Points int
	// Seed drives the crash-point sampler (default 1). The sweep logs it
	// in its Result so any run can be reproduced exactly.
	Seed int64
	// ADR selects the flush-on-fail persistence domain; default is the
	// harsher no-ADR domain.
	ADR bool
	// Workers bounds the parallel recovery checks, and the Legacy
	// replays (<= 0: GOMAXPROCS).
	Workers int
	// Legacy forces every crash point to simulate the whole run from
	// cycle zero on its own kernel and take its image with RunUntil and
	// CrashImage. By default every image is replayed from the golden
	// run's persistence-domain journal; the two modes produce identical
	// verdicts, and the equivalence test pins it.
	Legacy bool
}

// The sweep's process and schedule.
const (
	// interval is the checkpoint interval: small, so a sweep crosses
	// many commit windows cheaply.
	interval = 50 * sim.Microsecond
	// epochs is how many checkpoint epochs the crash window spans; the
	// golden run records two more for roll-forward headroom.
	epochs = 4
	// stackReserve and heapSize size the process.
	stackReserve = 64 << 10
	heapSize     = 1 << 20
	// iterations sizes the counter workload: it never finishes inside
	// the window, so every crash point hits a live thread.
	iterations = 1 << 30
)

func (cfg Config) withDefaults() Config {
	if cfg.Points <= 0 {
		cfg.Points = 64
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
	return cfg
}

// PointResult is the outcome of one crash point.
type PointResult struct {
	Cycle  sim.Time // engine cycle power was cut at
	Commit uint64   // P: process commits durable at the crash instant
	Epoch  uint64   // S: epoch the thread recovered to (0 when recovery errored)
	// Err is the recovery error, expected (and required) before the
	// first durable commit.
	Err string
	// Violation is non-empty when a recovery invariant broke.
	Violation string
}

// Result is one mechanism's sweep outcome.
type Result struct {
	Mechanism string
	Seed      int64
	ADR       bool
	Commits   int // golden commits recorded
	Points    []PointResult
	// Forked counts the crash points imaged without simulating the run
	// again: all of them (replayed from the golden run's journal), or
	// zero in Legacy mode.
	Forked int
}

// Violations returns the points whose recovery invariant broke.
func (r Result) Violations() []PointResult {
	var out []PointResult
	for _, p := range r.Points {
		if p.Violation != "" {
			out = append(out, p)
		}
	}
	return out
}

// Summary renders a one-line human-readable outcome.
func (r Result) Summary() string {
	errs := 0
	for _, p := range r.Points {
		if p.Err != "" && p.Violation == "" {
			errs++
		}
	}
	return fmt.Sprintf("%-11s %3d points, %d commits, %d pre-commit failures, %d violations (seed %d)",
		r.Mechanism, len(r.Points), r.Commits, errs, len(r.Violations()), r.Seed)
}

// storeRec is one observed stack store: when it was issued and which
// lines it touched (stores never span more than two lines).
type storeRec struct {
	cycle sim.Time
	line  uint64
	n     int
}

// golden is the reference history of one deterministic run: per-commit
// cycles, execution positions, and stack images, the store log the
// in-place invariants need, and the persistence-domain journal the crash
// images are replayed from. Because every run of the same Config is
// cycle-identical, it describes the Legacy crash runs too.
type golden struct {
	lo, hi      uint64
	commitCycle []sim.Time // commitCycle[k-1] = cycle commit k became durable
	snaps       [][]byte   // golden execution position per commit
	stacks      [][]byte   // golden [lo,hi) stack bytes per commit
	sps         []uint64   // golden stack pointer per commit
	stores      []storeRec // in cycle order
	journal     *mem.Journal
}

// commitsBy returns P: how many commits were durable by cycle c.
func (g *golden) commitsBy(c sim.Time) uint64 {
	return uint64(sort.Search(len(g.commitCycle), func(i int) bool {
		return g.commitCycle[i] > c
	}))
}

// excluded returns a bitset over the stack's lines, bit i standing for
// line lo + i×LineSize: the lines stored to after commit s and up to the
// crash cycle c, whose in-place durable copy may legitimately be newer
// than epoch s.
func (g *golden) excluded(s uint64, c sim.Time) []uint64 {
	out := make([]uint64, ((g.hi-g.lo)/mem.LineSize+63)/64)
	cs := g.commitCycle[s-1]
	// The log is in cycle order, so the window (cs, c] is one run of it.
	i := sort.Search(len(g.stores), func(i int) bool { return g.stores[i].cycle > cs })
	for _, r := range g.stores[i:] {
		if r.cycle > c {
			break
		}
		for k := 0; k < r.n; k++ {
			if line := r.line + uint64(k)*mem.LineSize; line >= g.lo && line < g.hi {
				bit := (line - g.lo) / mem.LineSize
				out[bit/64] |= 1 << (bit % 64)
			}
		}
	}
	return out
}

// stackObserver records every store into the swept thread's stack range.
// It is a pure observer on the core's store path: zero timing effect, so
// observed runs stay cycle-identical to unobserved ones.
type stackObserver struct {
	eng *sim.Engine
	g   *golden
}

func (o *stackObserver) ObserveStore(vaddr uint64, size int) {
	if vaddr+uint64(size) <= o.g.lo || vaddr >= o.g.hi {
		return
	}
	o.g.stores = append(o.g.stores, storeRec{
		cycle: o.eng.Now(),
		line:  mem.LineOf(vaddr),
		n:     mem.LinesSpanned(vaddr, size),
	})
}

// spawn starts the sweep's process on k. Golden and crash runs call this
// with identical configs, which is what makes them cycle-identical.
func (cfg Config) spawn(k *kernel.Kernel) (*kernel.Process, *workload.CounterProgram, error) {
	fac, err := mechanism(cfg.Mechanism)
	if err != nil {
		return nil, nil, err
	}
	prog := workload.NewCounter(iterations)
	p := k.Spawn(kernel.ProcessConfig{
		Name:               "sweep",
		StackMech:          fac,
		StackReserve:       stackReserve,
		HeapSize:           heapSize,
		CheckpointInterval: interval,
	}, prog)
	return p, prog, nil
}

func (cfg Config) machineConfig() machine.Config {
	return machine.Config{Cores: 1, ADR: cfg.ADR}
}

// readPage reads the page of p at virtual address va into buf through
// the page table; an unmapped page reads as zero, like the hardware's
// zero-fill.
func readPage(st *mem.Storage, p *kernel.Process, va uint64, buf []byte) {
	if paddr, _, ok := p.AS.PT.Translate(va); ok {
		st.Read(paddr, buf)
	} else {
		clear(buf)
	}
}

// readStack reads the functional bytes of seg.
func readStack(st *mem.Storage, p *kernel.Process, seg persist.Segment) []byte {
	out := make([]byte, seg.Hi-seg.Lo)
	for va := seg.Lo; va < seg.Hi; va += mem.PageSize {
		readPage(st, p, va, out[va-seg.Lo:][:mem.PageSize])
	}
	return out
}

// capture performs the golden run: no crash, observers on, recording the
// committed history for epochs+2 commits and journaling the persistence
// domain from boot.
func (cfg Config) capture() (*golden, error) {
	k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
	journal := k.Mach.Domain.Record(k.Eng)
	p, prog, err := cfg.spawn(k)
	if err != nil {
		return nil, err
	}
	defer p.Shutdown()
	th := p.Threads[0]
	g := &golden{lo: th.StackSeg.Lo, hi: th.StackSeg.Hi, journal: journal}
	obs := &stackObserver{eng: k.Eng, g: g}
	for _, c := range k.Mach.Cores {
		c.Observer = obs
	}
	p.CommitHook = func(*kernel.Process) {
		// Threads are still quiesced here: architectural and program
		// state are exactly the committed epoch's.
		if int(p.CheckpointCount) != len(g.commitCycle)+1 {
			panic(fmt.Sprintf("crash: non-sequential commit %d after %d", p.CheckpointCount, len(g.commitCycle)))
		}
		g.commitCycle = append(g.commitCycle, k.Eng.Now())
		g.snaps = append(g.snaps, append([]byte(nil), prog.Snapshot()...))
		g.stacks = append(g.stacks, readStack(k.Mach.Storage, p, th.StackSeg))
		g.sps = append(g.sps, th.SP())
	}
	// Romulus replays its whole store log entry by entry, so a commit can
	// straddle several intervals (the ticker skips while a checkpoint is
	// in flight); allow plenty of intervals per commit.
	target := epochs + 2
	for guard := 0; len(g.commitCycle) < target && guard < target*16; guard++ {
		k.RunFor(interval)
	}
	if len(g.commitCycle) < target {
		return nil, fmt.Errorf("crash: golden run recorded %d commits, want %d", len(g.commitCycle), target)
	}
	if r, ok := th.Mech().(*persist.Romulus); ok {
		if of := r.Counters.Get("romulus.log_overflow"); of > 0 {
			return nil, fmt.Errorf("crash: romulus log overflowed %d times; enlarge the meta area or shorten the interval", of)
		}
	}
	return g, nil
}

// samplePoints draws the crash points: even indices uniform over the
// window, odd indices clustered just before/after a commit instant, where
// the persist and commit races live. The window's upper bound keeps the
// roll-forward epoch P+1 inside the recorded golden history.
func (cfg Config) samplePoints(g *golden, rng *rand.Rand) []sim.Time {
	lo := sim.Time(1000)
	hi := g.commitCycle[len(g.commitCycle)-2]
	span := int64(interval/3 + interval/20)
	pts := make([]sim.Time, 0, cfg.Points)
	for i := 0; i < cfg.Points; i++ {
		var c sim.Time
		if i%2 == 0 {
			c = lo + sim.Time(rng.Int63n(int64(hi-lo)))
		} else {
			commit := g.commitCycle[rng.Intn(len(g.commitCycle)-1)]
			c = commit - interval/3 + sim.Time(rng.Int63n(span))
		}
		if c < lo {
			c = lo
		}
		if c > hi {
			c = hi
		}
		pts = append(pts, c)
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i] < pts[j] })
	return pts
}

// stackCheck classifies the per-mechanism recovered-stack invariant.
type stackCheck int

const (
	checkFullImage stackCheck = iota // recovered == golden[S] byte-for-byte
	checkZero                        // nothing persisted: recovered stack is empty
	checkLines                       // golden[S] per line, modulo post-S stores
)

func (cfg Config) stackCheck() stackCheck {
	switch cfg.Mechanism {
	case "none":
		return checkZero
	case "ssp", "romulus":
		return checkLines
	default:
		return checkFullImage
	}
}

// images returns the surviving NVM image at each of the ascending crash
// cycles pts. By default each is replayed from the golden run's
// persistence-domain journal; in Legacy mode each comes from its own run
// simulated from cycle zero.
func (cfg Config) images(g *golden, pts []sim.Time) []*mem.Storage {
	if !cfg.Legacy {
		return g.journal.Images(pts)
	}
	imgs := make([]*mem.Storage, len(pts))
	runner.ForEach(cfg.Workers, len(pts), func(i int) {
		k := kernel.New(kernel.Config{Machine: cfg.machineConfig()})
		if _, _, err := cfg.spawn(k); err != nil {
			panic(err) // capture already resolved this mechanism
		}
		k.Eng.RunUntil(pts[i])
		imgs[i] = k.Mach.CrashImage()
	})
	return imgs
}

// check boots the image that survived a power cut at cycle c and checks
// every recovery invariant against the golden history.
func (cfg Config) check(g *golden, c sim.Time, img *mem.Storage) PointResult {
	res := PointResult{Cycle: c, Commit: g.commitsBy(c)}

	if rep := kernel.Fsck(img); !rep.OK() {
		res.Violation = fmt.Sprintf("fsck of surviving image: %v", rep.Problems)
		return res
	}

	k2 := kernel.New(kernel.Config{Machine: machine.Config{Cores: 1, ADR: cfg.ADR, Storage: img}})
	fac, err := mechanism(cfg.Mechanism)
	if err != nil {
		res.Violation = err.Error()
		return res
	}
	prog := workload.NewCounter(iterations)
	rp, err := k2.RecoverProcess(kernel.ProcessConfig{
		Name:         "sweep",
		StackMech:    fac,
		StackReserve: stackReserve,
		HeapSize:     heapSize,
	}, []workload.Program{prog})
	if errors.Is(err, kernel.ErrRecoveryDrained) {
		res.Violation = err.Error()
		return res
	}
	if err != nil {
		res.Err = err.Error()
		// Failing to recover is legitimate only before anything durable
		// existed; after a durable commit it is data loss.
		if res.Commit >= 1 {
			res.Violation = "recovery failed after a durable commit: " + err.Error()
		}
		return res
	}
	defer rp.Shutdown()
	th := rp.Threads[0]
	s := th.CkptEpoch()
	res.Epoch = s
	p := res.Commit
	if s != p && s != p+1 {
		res.Violation = fmt.Sprintf("recovered epoch %d, want %d or %d", s, p, p+1)
		return res
	}
	if s < 1 || int(s) > len(g.snaps) {
		res.Violation = fmt.Sprintf("recovered epoch %d outside golden history (%d commits)", s, len(g.snaps))
		return res
	}
	if got, want := prog.Snapshot(), g.snaps[s-1]; !bytes.Equal(got, want) {
		res.Violation = fmt.Sprintf("execution position %x differs from committed epoch %d position %x", got, s, want)
		return res
	}

	res.Violation = cfg.checkStack(g, s, c, k2.Mach.Storage, rp, th.StackSeg)
	return res
}

// checkStack compares the recovered stack seg of p, read page by page,
// against the golden stack of epoch s, and returns the first violation
// or "".
func (cfg Config) checkStack(g *golden, s uint64, c sim.Time, st *mem.Storage, p *kernel.Process, seg persist.Segment) string {
	want := g.stacks[s-1]
	check := cfg.stackCheck()
	var ex []uint64
	if check == checkLines {
		ex = g.excluded(s, c)
	}
	var page [mem.PageSize]byte
	rec := page[:]
	for off := uint64(0); off < seg.Hi-seg.Lo; off += mem.PageSize {
		readPage(st, p, seg.Lo+off, rec)
		w := want[off : off+mem.PageSize]
		switch check {
		case checkZero:
			if bytes.Count(rec, []byte{0}) != len(rec) {
				i := slices.IndexFunc(rec, func(b byte) bool { return b != 0 })
				return fmt.Sprintf("unpersisted stack holds nonzero byte at %#x", g.lo+off+uint64(i))
			}
		case checkFullImage:
			if !bytes.Equal(rec, w) {
				i := firstDiff(rec, w)
				return fmt.Sprintf("stack byte %#x = %#02x differs from epoch %d image byte %#02x",
					g.lo+off+uint64(i), rec[i], s, w[i])
			}
		case checkLines:
			for l := uint64(0); l < mem.PageSize; l += mem.LineSize {
				bit := (off + l) / mem.LineSize
				if ex[bit/64]&(1<<(bit%64)) != 0 {
					continue
				}
				if !bytes.Equal(rec[l:l+mem.LineSize], w[l:l+mem.LineSize]) {
					return fmt.Sprintf("unmodified stack line %#x differs from epoch %d image", g.lo+off+l, s)
				}
			}
		}
	}
	return ""
}

// firstDiff returns the index of the first byte where a and b differ.
func firstDiff(a, b []byte) int {
	i := 0
	for i < len(a) && a[i] == b[i] {
		i++
	}
	return i
}

// Sweep runs the full crash-point sweep for cfg.Mechanism: one golden
// run, its journal replayed into an image at every crash point, then
// Points independent recovery checks in parallel on runner's worker
// pool.
func Sweep(cfg Config) (Result, error) {
	cfg = cfg.withDefaults()
	g, err := cfg.capture()
	if err != nil {
		return Result{}, err
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	pts := cfg.samplePoints(g, rng)
	res := Result{
		Mechanism: cfg.Mechanism,
		Seed:      cfg.Seed,
		ADR:       cfg.ADR,
		Commits:   len(g.commitCycle),
		Points:    make([]PointResult, len(pts)),
	}
	if !cfg.Legacy {
		res.Forked = len(pts)
	}
	imgs := cfg.images(g, pts)
	g.journal = nil // replayed: let the collector have it
	runner.ForEach(cfg.Workers, len(pts), func(i int) {
		res.Points[i] = cfg.check(g, pts[i], imgs[i])
		imgs[i] = nil // checked: let the collector have it
	})
	return res, nil
}
