package sim

import (
	"errors"
	"fmt"
	"slices"

	"prosper/internal/snapbuf"
)

// ErrUnkeyedDone reports a parked continuation token that carries live
// closures but no resume identity. Such a token cannot survive a
// snapshot/resume cycle, so finding one in flight means the machine is
// not at a snapshot-safe quiescent point.
var ErrUnkeyedDone = errors.New("sim: continuation in flight without a resume identity")

// SaveDone encodes a parked continuation token. Invalid (zero) tokens
// encode as absent; valid tokens must carry a resume key.
func SaveDone(w *snapbuf.Writer, d Done) error {
	if !d.Valid() {
		w.Bool(false)
		return nil
	}
	if d.key == 0 {
		return fmt.Errorf("%w (component %s)", ErrUnkeyedDone, d.Component())
	}
	w.Bool(true)
	w.U64(d.key)
	w.U64(d.arg)
	return nil
}

// LoadDone decodes a token written by SaveDone, re-binding it to the
// live continuation registered under the same key in reg. The registry
// maps each resume key to a freshly constructed prototype token; the
// saved argument overrides the prototype's.
func LoadDone(r *snapbuf.Reader, reg map[uint64]Done) (Done, error) {
	if !r.Bool() {
		return Done{}, r.Err()
	}
	key := r.U64()
	arg := r.U64()
	if r.Err() != nil {
		return Done{}, r.Err()
	}
	proto, ok := reg[key]
	if !ok {
		return Done{}, fmt.Errorf("sim: no continuation registered for resume key %#x", key)
	}
	return proto.WithArg(arg), nil
}

// EventClaims accumulates the (when, seq) identities of pending engine
// events that snapshotted components claim ownership of. Save compares
// the claimed multiset against the engine's actual pending queue: any
// unclaimed event would be silently lost across resume, so a mismatch
// rejects the snapshot point.
type EventClaims struct {
	keys []PendingKey
}

// Claim records ownership of the pending event at (when, seq).
func (c *EventClaims) Claim(when Time, seq uint64) {
	c.keys = append(c.keys, PendingKey{When: when, Seq: seq})
}

// Keys returns the claimed identities sorted by (when, seq).
func (c *EventClaims) Keys() []PendingKey {
	out := slices.Clone(c.keys)
	slices.SortFunc(out, func(a, b PendingKey) int {
		if a.When != b.When {
			if a.When < b.When {
				return -1
			}
			return 1
		}
		if a.Seq != b.Seq {
			if a.Seq < b.Seq {
				return -1
			}
			return 1
		}
		return 0
	})
	return out
}
