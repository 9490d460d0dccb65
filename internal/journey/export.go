package journey

import (
	"strconv"

	"prosper/internal/telemetry"
)

// ExportTrace serializes every finished journey onto the run's Perfetto
// tracer: one track per stage ("journey/l1", "journey/nvm_drain", ...),
// each recorded span as a complete-span event at its true cycles, and a
// flow arrow (s → t... → f) threading a journey's spans together across
// tracks so one access reads as a connected chain in the viewer. Tracks
// are created lazily in stage order on first use; flow identity is the
// journey ID, unique within the run's process lane.
func ExportTrace(r *Recorder, t *telemetry.Tracer) {
	if r == nil || !t.Enabled() {
		return
	}
	var tracks [NumStages]telemetry.Track
	var made [NumStages]bool
	track := func(s Stage) telemetry.Track {
		if !made[s] {
			tracks[s] = t.Track("journey/" + s.String())
			made[s] = true
		}
		return tracks[s]
	}
	// Span names ("stage" or "stage:cause") are built on first use, so
	// a span costs no concatenation and the table dies with the export.
	var names [NumStages][NumCauses]string
	for _, j := range r.Journeys() {
		if !j.Finished() {
			continue
		}
		kind := "load"
		if j.Write {
			kind = "store"
		}
		var flowName string
		if len(j.Spans) > 1 {
			flowName = "journey " + strconv.FormatUint(uint64(j.JID), 10)
		}
		for i, sp := range j.Spans {
			tk := track(sp.Stage)
			name := &names[sp.Stage][sp.Cause]
			if *name == "" {
				*name = sp.Stage.String()
				if sp.Cause != CauseNone {
					*name += ":" + sp.Cause.String()
				}
			}
			t.SpanAt(tk, *name, sp.Enter, sp.Exit-sp.Enter,
				telemetry.U("jid", uint64(j.JID)),
				telemetry.U("seq", j.Seq),
				telemetry.S("kind", kind),
				telemetry.U("vaddr", j.VAddr),
			)
			// Flow points sit just inside the span they depart from /
			// arrive at, binding to the enclosing slice.
			switch {
			case len(j.Spans) == 1:
				// A single span has nothing to link.
			case i == 0:
				t.FlowStart(tk, flowName, uint64(j.JID), sp.Enter)
			case i == len(j.Spans)-1:
				t.FlowEnd(tk, flowName, uint64(j.JID), sp.Enter)
			default:
				t.FlowStep(tk, flowName, uint64(j.JID), sp.Enter)
			}
		}
	}
}
