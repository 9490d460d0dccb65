package telemetry

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"testing"
	"testing/quick"
)

// refEvent is one event as recorded, with the pid of its tracer.
type refEvent struct {
	pid int
	e   event
}

// refWriteJSON is the fmt-based trace encoder WriteJSON replaced, kept
// as the reference the append encoder must match byte for byte. It
// reads the events from its own list, so the comparison also checks
// that the tracer's blocks and arg windows hold what was recorded.
func refWriteJSON(events []refEvent, w io.Writer) error {
	bw := bufio.NewWriter(w)
	bw.WriteString(`{"traceEvents":[`)
	first := true
	for i := range events {
		refWriteEvent(bw, events[i].pid, &events[i].e, &first)
	}
	bw.WriteString("\n]}\n")
	return bw.Flush()
}

func refWriteEvent(bw *bufio.Writer, pid int, e *event, first *bool) {
	if *first {
		bw.WriteString("\n")
		*first = false
	} else {
		bw.WriteString(",\n")
	}
	fmt.Fprintf(bw, `{"name":%s,"ph":"%c","pid":%d,"tid":%d`, strconv.Quote(e.name), e.ph, pid, e.tid)
	switch e.ph {
	case 'X':
		fmt.Fprintf(bw, `,"ts":%d,"dur":%d`, e.ts, e.dur)
	case 'i':
		fmt.Fprintf(bw, `,"ts":%d,"s":"t"`, e.ts)
	case 'C':
		fmt.Fprintf(bw, `,"ts":%d`, e.ts)
	case 's', 't':
		fmt.Fprintf(bw, `,"ts":%d,"id":%d`, e.ts, e.id)
	case 'f':
		fmt.Fprintf(bw, `,"ts":%d,"id":%d,"bp":"e"`, e.ts, e.id)
	}
	if len(e.args) > 0 {
		bw.WriteString(`,"args":{`)
		for i, a := range e.args {
			if i > 0 {
				bw.WriteString(",")
			}
			bw.WriteString(strconv.Quote(a.Key))
			bw.WriteString(":")
			if a.isStr {
				bw.WriteString(strconv.Quote(a.str))
			} else {
				fmt.Fprintf(bw, "%d", a.val)
			}
		}
		bw.WriteString("}")
	}
	bw.WriteString("}")
}

// trickyPieces are the fragments random names and strings are built
// from: JSON metacharacters, control bytes, invalid UTF-8 and non-ASCII
// runes, which is where a quoting encoder can part from strconv.Quote.
var trickyPieces = []string{
	"a", "Z", "0", " ", ".", "/", `"`, `\`, "\x00", "\a", "\n", "\t",
	"\x1f", "\x7f", "\x80", "\xff", "\xc3", "\xe2\x82", "é", "日本",
	"\u2028", "\ufeff", "\ufffd", "\U0001F600",
}

func randString(r *rand.Rand) string {
	var b []byte
	for range r.Intn(6) {
		b = append(b, trickyPieces[r.Intn(len(trickyPieces))]...)
	}
	return string(b)
}

func randInt64(r *rand.Rand) int64 {
	switch r.Intn(4) {
	case 0:
		return []int64{0, 1, -1, math.MaxInt64, math.MinInt64, math.MinInt64 + 1}[r.Intn(6)]
	case 1:
		return -r.Int63()
	default:
		return r.Int63()
	}
}

func randUint64(r *rand.Rand) uint64 {
	if r.Intn(3) == 0 {
		return []uint64{0, 1, math.MaxInt64, math.MaxInt64 + 1, math.MaxUint64}[r.Intn(5)]
	}
	return r.Uint64()
}

// randTrace is a quick.Generator of traces whose events cover every
// phase with random names, numbers and args; want lists what was
// recorded, in order.
type randTrace struct {
	tr   *Trace
	want []refEvent
}

func (randTrace) Generate(r *rand.Rand, size int) reflect.Value {
	g := randTrace{tr: NewTrace()}
	for range 1 + r.Intn(3) {
		name := randString(r)
		tc := g.tr.NewTracer(name)
		g.want = append(g.want, refEvent{tc.pid, event{ph: 'M', name: "process_name", args: []Arg{S("name", name)}}})
		for range r.Intn(4 * (size + 1)) {
			e := event{
				ph:   "MXiCstf"[r.Intn(7)],
				tid:  int(randInt64(r)),
				name: randString(r),
				ts:   randInt64(r),
				dur:  randInt64(r),
				id:   randUint64(r),
			}
			// A quarter of the events repeat the previous event's args,
			// which the tracer stores once and shares.
			if n := len(g.want); n > 0 && r.Intn(4) == 0 {
				e.args = slices.Clone(g.want[n-1].e.args)
			} else {
				for range r.Intn(4) {
					switch r.Intn(3) {
					case 0:
						e.args = append(e.args, I(randString(r), randInt64(r)))
					case 1:
						e.args = append(e.args, U(randString(r), randUint64(r)))
					default:
						e.args = append(e.args, S(randString(r), randString(r)))
					}
				}
			}
			tc.add(e, e.args)
			g.want = append(g.want, refEvent{tc.pid, e})
		}
	}
	return reflect.ValueOf(g)
}

// TestWriteJSONMatchesReference checks the append encoder against the
// fmt reference on random traces: every phase, hostile strings, and
// int64/uint64 extremes must serialize to identical bytes.
func TestWriteJSONMatchesReference(t *testing.T) {
	check := func(g randTrace) bool {
		var got, want bytes.Buffer
		if err := g.tr.WriteJSON(&got); err != nil {
			t.Fatal(err)
		}
		if err := refWriteJSON(g.want, &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Errorf("encoders differ:\n got: %q\nwant: %q", firstDiffLine(got.Bytes(), want.Bytes()), firstDiffLine(want.Bytes(), got.Bytes()))
			return false
		}
		return true
	}
	cfg := &quick.Config{MaxCount: 300, Rand: rand.New(rand.NewSource(1))}
	if err := quick.Check(check, cfg); err != nil {
		t.Fatal(err)
	}
}

// firstDiffLine returns the line of a holding the first byte where a
// and b differ.
func firstDiffLine(a, b []byte) []byte {
	i := 0
	for i < len(a) && i < len(b) && a[i] == b[i] {
		i++
	}
	start := bytes.LastIndexByte(a[:i], '\n') + 1
	end := len(a)
	if j := bytes.IndexByte(a[i:], '\n'); j >= 0 {
		end = i + j
	}
	return a[start:end]
}
