// Package binio implements the little-endian primitive codec shared by
// the accumulator snapshot and checkpoint-file serializers: sticky-error
// writer/reader pairs over fixed-width primitives and length-prefixed
// strings, with every decode-side element count validated against the
// bytes the input can still yield — so corrupt or hostile lengths error
// out contextually instead of panicking or allocating unboundedly.
package binio

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// defaultCap bounds a decoded element count when the input's remaining
// size is unknown (a plain io.Reader with no Len). Checkpoint decoding
// always works over in-memory sections, so this only guards direct
// callers.
const defaultCap = 1 << 27

// Writer encodes primitives with a sticky first error: callers write a
// whole structure and check Err once at the end.
type Writer struct {
	w   io.Writer
	err error
	buf [8]byte
}

// NewWriter wraps w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: w} }

// Err returns the first write error, if any.
func (w *Writer) Err() error { return w.err }

// Check folds an external error (a nested serializer's return) into the
// sticky state.
func (w *Writer) Check(err error) {
	if w.err == nil && err != nil {
		w.err = err
	}
}

// Write implements io.Writer so nested serializers can wrap a Writer in
// their own layer without flattening the error handling.
func (w *Writer) Write(p []byte) (int, error) {
	if w.err != nil {
		return 0, w.err
	}
	n, err := w.w.Write(p)
	w.err = err
	return n, err
}

func (w *Writer) write(b []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(b)
	}
}

// U8 writes one byte.
func (w *Writer) U8(v uint8) { w.write([]byte{v}) }

// U32 writes a little-endian uint32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:4], v)
	w.write(w.buf[:4])
}

// U64 writes a little-endian uint64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:8], v)
	w.write(w.buf[:8])
}

// I64 writes an int64 (two's complement).
func (w *Writer) I64(v int64) { w.U64(uint64(v)) }

// Int writes an int as an int64.
func (w *Writer) Int(v int) { w.I64(int64(v)) }

// F64 writes a float64 by bit pattern (NaN payloads round-trip).
func (w *Writer) F64(v float64) { w.U64(math.Float64bits(v)) }

// Bool writes one byte, 0 or 1.
func (w *Writer) Bool(v bool) {
	b := uint8(0)
	if v {
		b = 1
	}
	w.U8(b)
}

// String writes a length-prefixed string.
func (w *Writer) String(s string) {
	w.Int(len(s))
	w.write([]byte(s))
}

// Reader decodes what Writer encodes, with the same sticky-error
// contract. A short read surfaces as io.ErrUnexpectedEOF.
type Reader struct {
	r   io.Reader
	err error
	buf [8]byte
	// remaining is how many bytes the source can still yield, or -1 when
	// unknown; Count validates decoded lengths against it.
	remaining int64
}

// NewReader wraps r. When r measures its own remaining length (a
// *bytes.Reader, *bytes.Buffer, another *Reader — anything with
// Len() int), decoded element counts are validated against it, so a
// corrupt length can never allocate more than the input's own size.
func NewReader(r io.Reader) *Reader {
	br := &Reader{r: r, remaining: -1}
	if l, ok := r.(interface{ Len() int }); ok {
		if n := l.Len(); n >= 0 {
			br.remaining = int64(n)
		}
	}
	return br
}

// Err returns the first decode error, if any.
func (r *Reader) Err() error { return r.err }

// Check folds an external error (a nested decoder's, or a failed
// validation of a decoded value) into the sticky state.
func (r *Reader) Check(err error) {
	if r.err == nil && err != nil {
		r.err = err
	}
}

// Len returns the bytes the source can still yield, or -1 when unknown —
// so a nested NewReader over this one inherits the limit.
func (r *Reader) Len() int {
	if r.remaining < 0 {
		return -1
	}
	return int(r.remaining)
}

// Read implements io.Reader (for nesting); read errors other than a
// clean EOF become sticky.
func (r *Reader) Read(p []byte) (int, error) {
	if r.err != nil {
		return 0, r.err
	}
	n, err := r.r.Read(p)
	if r.remaining >= 0 {
		r.remaining -= int64(n)
	}
	if err != nil && err != io.EOF {
		r.err = err
	}
	return n, err
}

// read fills and returns r.buf[:n], or nil after an error.
func (r *Reader) read(n int) []byte {
	if r.err != nil {
		return nil
	}
	if r.remaining >= 0 && int64(n) > r.remaining {
		r.err = io.ErrUnexpectedEOF
		return nil
	}
	b := r.buf[:n]
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return nil
	}
	if r.remaining >= 0 {
		r.remaining -= int64(n)
	}
	return b
}

// U8 reads one byte.
func (r *Reader) U8() uint8 {
	b := r.read(1)
	if b == nil {
		return 0
	}
	return b[0]
}

// U32 reads a little-endian uint32.
func (r *Reader) U32() uint32 {
	b := r.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a little-endian uint64.
func (r *Reader) U64() uint64 {
	b := r.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (r *Reader) I64() int64 { return int64(r.U64()) }

// Int reads an int64 into an int.
func (r *Reader) Int() int { return int(r.I64()) }

// F64 reads a float64 by bit pattern.
func (r *Reader) F64() float64 { return math.Float64frombits(r.U64()) }

// Bool reads one byte; any nonzero value is true.
func (r *Reader) Bool() bool { return r.U8() != 0 }

// Count decodes an element count written by Int and validates it:
// non-negative, and n × elemSize (the encoded size of one element, ≥ 1)
// must fit in the input that remains. A corrupt count therefore errors
// here instead of sizing an allocation.
func (r *Reader) Count(elemSize int) int {
	n := r.I64()
	if r.err != nil {
		return 0
	}
	if n < 0 {
		r.err = fmt.Errorf("binio: negative count %d", n)
		return 0
	}
	if elemSize < 1 {
		elemSize = 1
	}
	limit := int64(defaultCap) * int64(elemSize)
	if r.remaining >= 0 {
		limit = r.remaining
	}
	if n > limit/int64(elemSize) {
		r.err = fmt.Errorf("binio: count %d × %dB exceeds remaining input (%d bytes)", n, elemSize, limit)
		return 0
	}
	return int(n)
}

// String reads a length-prefixed string.
func (r *Reader) String() string {
	n := r.Count(1)
	if r.err != nil || n == 0 {
		return ""
	}
	b := make([]byte, n)
	if _, err := io.ReadFull(r.r, b); err != nil {
		if err == io.EOF {
			err = io.ErrUnexpectedEOF
		}
		r.err = err
		return ""
	}
	if r.remaining >= 0 {
		r.remaining -= int64(n)
	}
	return string(b)
}
