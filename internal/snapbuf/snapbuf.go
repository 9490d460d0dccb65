// Package snapbuf provides the deterministic binary encoding primitives
// the simulator snapshot format is built from: a little-endian append-only
// Writer and a bounds-checked Reader with a sticky error.
//
// The package is a dependency leaf (standard library only) so every
// simulator layer — mem, machine, persist, kernel — can serialize its own
// unexported state without import cycles. Framing (sections, CRCs,
// versioning) lives in internal/snapshot; this package only encodes
// scalars, byte strings, and counted sequences, always little-endian,
// with no map iteration and no reflection, so identical state always
// encodes to identical bytes.
package snapbuf

import (
	"encoding/binary"
	"errors"
	"fmt"
)

// ErrTruncated reports a read past the end of the buffer.
var ErrTruncated = errors.New("snapbuf: truncated input")

// ErrRange reports a decoded length or count that cannot fit the
// remaining input (corrupt or adversarial data).
var ErrRange = errors.New("snapbuf: length out of range")

// Writer accumulates a deterministic little-endian encoding.
type Writer struct {
	buf []byte
}

// NewWriter returns an empty writer.
func NewWriter() *Writer { return &Writer{} }

// Bytes returns the accumulated encoding.
func (w *Writer) Bytes() []byte { return w.buf }

// Len returns the number of bytes written so far.
func (w *Writer) Len() int { return len(w.buf) }

// U8 appends one byte.
func (w *Writer) U8(v uint8) { w.buf = append(w.buf, v) }

// Bool appends a boolean as one byte (0 or 1).
func (w *Writer) Bool(v bool) {
	if v {
		w.U8(1)
		return
	}
	w.U8(0)
}

// U32 appends a little-endian 32-bit value.
func (w *Writer) U32(v uint32) {
	w.buf = binary.LittleEndian.AppendUint32(w.buf, v)
}

// U64 appends a little-endian 64-bit value.
func (w *Writer) U64(v uint64) {
	w.buf = binary.LittleEndian.AppendUint64(w.buf, v)
}

// I64 appends a little-endian signed 64-bit value.
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int appends an int as a signed 64-bit value.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// Bytes8 appends a 64-bit length prefix followed by the raw bytes.
func (w *Writer) Bytes8(b []byte) {
	w.U64(uint64(len(b)))
	w.buf = append(w.buf, b...)
}

// String appends a length-prefixed UTF-8 string.
func (w *Writer) String(s string) {
	w.U64(uint64(len(s)))
	w.buf = append(w.buf, s...)
}

// Raw appends bytes with no length prefix; the framing layer uses it for
// section payloads whose length is recorded in the section header.
func (w *Writer) Raw(b []byte) { w.buf = append(w.buf, b...) }

// Reader decodes a snapbuf encoding with a sticky error: after the first
// failure every subsequent read returns zero values, so decoders can run
// straight-line and check Err once.
type Reader struct {
	data []byte
	off  int
	err  error
}

// NewReader wraps data for decoding.
func NewReader(data []byte) *Reader { return &Reader{data: data} }

// Err returns the first error encountered, or nil.
func (r *Reader) Err() error { return r.err }

// Remaining returns how many bytes are left to decode.
func (r *Reader) Remaining() int {
	if r.err != nil {
		return 0
	}
	return len(r.data) - r.off
}

func (r *Reader) take(n int) []byte {
	if r.err != nil {
		return nil
	}
	if n < 0 || len(r.data)-r.off < n {
		r.err = ErrTruncated
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// Bool reads a one-byte boolean; any nonzero byte is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// U32 reads a little-endian 32-bit value.
func (r *Reader) U32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian 64-bit value.
func (r *Reader) U64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads a little-endian signed 64-bit value.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int encoded as a signed 64-bit value.
func (r *Reader) Int() int { return int(r.I64()) }

// Bytes8 reads a 64-bit length-prefixed byte string. The returned slice
// aliases the reader's buffer; callers that retain it must copy.
func (r *Reader) Bytes8() []byte {
	n := r.U64()
	if r.err != nil {
		return nil
	}
	if n > uint64(len(r.data)-r.off) {
		r.err = fmt.Errorf("%w: byte string of %d with %d remaining", ErrRange, n, len(r.data)-r.off)
		return nil
	}
	return r.take(int(n))
}

// String reads a length-prefixed string.
func (r *Reader) String() string { return string(r.Bytes8()) }

// Raw reads exactly n unprefixed bytes. The returned slice aliases the
// reader's buffer; callers that retain it must copy.
func (r *Reader) Raw(n int) []byte { return r.take(n) }

// Count reads a sequence count and validates it against the minimum
// per-element encoded size, so corrupt counts fail fast instead of
// driving huge allocations.
func (r *Reader) Count(elemMin int) int {
	n := r.U64()
	if r.err != nil {
		return 0
	}
	if elemMin < 1 {
		elemMin = 1
	}
	if n > uint64(len(r.data)-r.off)/uint64(elemMin) {
		r.err = fmt.Errorf("%w: count %d with %d remaining", ErrRange, n, len(r.data)-r.off)
		return 0
	}
	return int(n)
}
