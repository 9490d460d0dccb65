package journey

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"prosper/internal/sim"
)

// StageTotal is one row of a run's aggregate stage table.
type StageTotal struct {
	Stage  string `json:"stage"`
	Cycles int64  `json:"cycles"`
	Share  string `json:"share"` // fixed-point percentage, e.g. "37.5%"
}

// TopEntry is one row of the top-K-slowest table.
type TopEntry struct {
	Rank     int    `json:"rank"`
	JID      uint32 `json:"jid"`
	Seq      uint64 `json:"seq"`
	Kind     string `json:"kind"`
	VAddr    string `json:"vaddr"`
	Latency  int64  `json:"latency"`
	Dominant string `json:"dominant"`
	// Vec repeats the journey's full attribution (stage -> cycles),
	// serialized as ordered rows so JSON output stays deterministic.
	Vec []StageTotal `json:"vec"`
}

// RunSummary is the analyzer's per-run result.
type RunSummary struct {
	Run         string       `json:"run"`
	Rate        uint64       `json:"rate"`
	Seed        uint64       `json:"seed"`
	Accesses    uint64       `json:"accesses"`
	Sampled     uint64       `json:"sampled"`
	Finished    uint64       `json:"finished"`
	Journeys    int          `json:"journeys"`
	TotalCycles int64        `json:"total_cycles"`
	MeanLatency int64        `json:"mean_latency"`
	MaxLatency  int64        `json:"max_latency"`
	Stages      []StageTotal `json:"stages"`
	Top         []TopEntry   `json:"top"`
}

// Analysis is the whole-journal analyzer result, runs in journal order.
type Analysis struct {
	Version int           `json:"journey_journal"`
	Runs    []*RunSummary `json:"runs"`
}

func pct(part, total int64) string {
	if total == 0 {
		return "0.0%"
	}
	// Fixed-point tenths of a percent, integer arithmetic only: no
	// float formatting in the deterministic output path.
	tenths := (part*1000 + total/2) / total
	return fmt.Sprintf("%d.%d%%", tenths/10, tenths%10)
}

func vecRows(vec *[NumStages]sim.Time, total int64) []StageTotal {
	rows := make([]StageTotal, 0, NumStages)
	for s := 0; s < NumStages; s++ {
		if vec[s] == 0 {
			continue
		}
		rows = append(rows, StageTotal{Stage: Stage(s).String(), Cycles: vec[s], Share: pct(vec[s], total)})
	}
	return rows
}

// Analyze aggregates a journal's finished journeys: per-run stage-cycle
// totals and the top-K slowest journeys (latency descending, ties
// broken by access sequence number ascending — fully deterministic).
func Analyze(jl *Journal, topK int) *Analysis {
	a := &Analysis{Version: FormatVersion}
	for _, r := range jl.Recorders() {
		accesses, sampled, finished := r.Counts()
		rs := &RunSummary{
			Run: r.name, Rate: r.rate, Seed: r.seed,
			Accesses: accesses, Sampled: sampled, Finished: finished,
		}
		var vec [NumStages]sim.Time
		var order []*Journey
		for _, j := range r.journeys {
			if !j.finished {
				continue
			}
			order = append(order, j)
			for s := 0; s < NumStages; s++ {
				vec[s] += j.Vec[s]
			}
			rs.TotalCycles += j.Latency()
			rs.MaxLatency = max(rs.MaxLatency, j.Latency())
		}
		rs.Journeys = len(order)
		if len(order) > 0 {
			rs.MeanLatency = rs.TotalCycles / int64(len(order))
		}
		rs.Stages = vecRows(&vec, rs.TotalCycles)

		sort.SliceStable(order, func(i, k int) bool {
			if order[i].Latency() != order[k].Latency() {
				return order[i].Latency() > order[k].Latency()
			}
			return order[i].Seq < order[k].Seq
		})
		for i := 0; i < min(topK, len(order)); i++ {
			j := order[i]
			kind := "load"
			if j.Write {
				kind = "store"
			}
			rs.Top = append(rs.Top, TopEntry{
				Rank: i + 1, JID: j.JID, Seq: j.Seq, Kind: kind,
				VAddr: fmt.Sprintf("0x%x", j.VAddr), Latency: j.Latency(),
				Dominant: j.DominantStage().String(),
				Vec:      vecRows(&j.Vec, j.Latency()),
			})
		}
		a.Runs = append(a.Runs, rs)
	}
	return a
}

// WriteText renders the analysis as aligned plain text: per run, the
// header counters, the aggregate stage table, the top-K table, and a
// stage-latency waterfall of the slowest access. stageOnly suppresses
// everything but the stage tables.
func (a *Analysis) WriteText(w io.Writer, stageOnly bool) error {
	fmt.Fprintf(w, "journey journal v%d — %d run(s)\n", a.Version, len(a.Runs))
	for _, rs := range a.Runs {
		fmt.Fprintf(w, "\n== %s (rate 1/%d, seed %d) ==\n", rs.Run, rs.Rate, rs.Seed)
		fmt.Fprintf(w, "accesses %d  sampled %d  finished %d  mean %d cyc  max %d cyc\n",
			rs.Accesses, rs.Sampled, rs.Finished, rs.MeanLatency, rs.MaxLatency)
		fmt.Fprintf(w, "\n%-14s %12s %8s\n", "stage", "cycles", "share")
		for _, row := range rs.Stages {
			fmt.Fprintf(w, "%-14s %12d %8s\n", row.Stage, row.Cycles, row.Share)
		}
		fmt.Fprintf(w, "%-14s %12d %8s\n", "total", rs.TotalCycles, pct(rs.TotalCycles, rs.TotalCycles))
		if stageOnly || len(rs.Top) == 0 {
			continue
		}
		fmt.Fprintf(w, "\ntop %d slowest accesses:\n", len(rs.Top))
		fmt.Fprintf(w, "%4s %6s %10s %-5s %-14s %10s  %s\n", "rank", "jid", "seq", "kind", "vaddr", "latency", "dominant")
		for _, t := range rs.Top {
			fmt.Fprintf(w, "%4d %6d %10d %-5s %-14s %10d  %s\n",
				t.Rank, t.JID, t.Seq, t.Kind, t.VAddr, t.Latency, t.Dominant)
		}
		t := rs.Top[0]
		fmt.Fprintf(w, "\nanatomy of the slowest access (jid %d, %s %s, %d cycles):\n",
			t.JID, t.Kind, t.VAddr, t.Latency)
		writeWaterfall(w, t)
	}
	return nil
}

// writeWaterfall renders one journey's attribution as horizontal bars
// scaled to the slowest stage (ASCII only, deterministic).
func writeWaterfall(w io.Writer, t TopEntry) {
	var max int64
	for _, row := range t.Vec {
		if row.Cycles > max {
			max = row.Cycles
		}
	}
	if max == 0 {
		return
	}
	const width = 40
	for _, row := range t.Vec {
		n := int((row.Cycles*width + max - 1) / max)
		if n > width {
			n = width
		}
		fmt.Fprintf(w, "  %-14s %10d %8s |%s\n", row.Stage, row.Cycles, row.Share, strings.Repeat("#", n))
	}
}
