// Package wire implements a compact binary encoding of fleet datasets
// and a streaming reader over it. The JSON-lines format (internal/dataset)
// is the inspectable interchange format; a reference-scale fleet in it
// runs to hundreds of megabytes, while this encoding stores a probe set
// in tens of bytes. The full byte-level specification, including the
// version history and the cache-validation rules layered on top by
// meshlab.LoadOrGenerateFleet, lives in docs/FORMAT.md.
//
// Two format versions exist, distinguished by a leading magic:
//
//   - "MLF1" (legacy): the bare record stream. Readable, no longer
//     written; WriteV1 is retained so migration paths stay testable.
//   - "MLF2" (current): adds a section-flag byte, length-prefixed
//     network records and client section (so a Reader can skip either
//     without decoding them), and an optional appended flat-sample
//     section holding the pre-flattened §4 samples (snr.Sample) so warm
//     analysis starts are O(read) instead of re-flattening probe data.
//
// Encoder produces MLF2 one network at a time, spooling the trailing
// sections (Write and WriteWithSamples are loops over it); Read and
// Reader accept both versions. Reader is the streaming API: it walks a
// fleet file network-by-network with optional band/size filtering and
// per-network skip, so analysis peak memory is bounded by the largest
// single network plus whatever the caller retains — not the fleet.
package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
)

// Magic identifies the legacy v1 format.
var Magic = [4]byte{'M', 'L', 'F', '1'}

// Magic2 identifies the current v2 format (sectioned, length-prefixed).
var Magic2 = [4]byte{'M', 'L', 'F', '2'}

// flagFlatSamples marks an MLF2 file carrying the appended flat-sample
// section. All other flag bits are reserved and must be zero.
const flagFlatSamples uint8 = 1 << 0

var bandCodes = map[string]uint8{"bg": 0, "n": 1}
var bandNames = map[uint8]string{0: "bg", 1: "n"}
var envCodes = map[string]uint8{"indoor": 0, "outdoor": 1, "mixed": 2}
var envNames = map[uint8]string{0: "indoor", 1: "outdoor", 2: "mixed"}

// chunkSize is the writer's flush threshold: encoders append fields into
// one reused buffer and hand it to the destination about once per MiB,
// instead of making one Write call per field.
const chunkSize = 1 << 20

// writer appends little-endian fields to buf and, at boundaries the
// encoder picks (maybeFlush), hands buf to w once it passes chunkSize. A
// writer with a nil w never flushes: it is an in-memory buffer. n counts
// the bytes already flushed, and err is sticky.
type writer struct {
	w   io.Writer
	buf []byte
	n   int64
	err error
}

func (w *writer) bytes(b []byte) { w.buf = append(w.buf, b...) }
func (w *writer) u8(v uint8)     { w.buf = append(w.buf, v) }
func (w *writer) u16(v uint16)   { w.buf = binary.LittleEndian.AppendUint16(w.buf, v) }
func (w *writer) u32(v uint32)   { w.buf = binary.LittleEndian.AppendUint32(w.buf, v) }
func (w *writer) u64(v uint64)   { w.buf = binary.LittleEndian.AppendUint64(w.buf, v) }
func (w *writer) i16(v int16)    { w.u16(uint16(v)) }
func (w *writer) i32(v int32)    { w.u32(uint32(v)) }
func (w *writer) f32(v float32)  { w.u32(math.Float32bits(v)) }
func (w *writer) f64(v float64)  { w.u64(math.Float64bits(v)) }

// str appends a u16-length-prefixed string. Encoders check every string
// with checkStr before a record's first byte; an unchecked long string
// still fails the writer rather than truncating its prefix.
func (w *writer) str(s string) {
	if err := checkStr(s); err != nil {
		if w.err == nil {
			w.err = err
		}
		return
	}
	w.u16(uint16(len(s)))
	w.buf = append(w.buf, s...)
}

// checkStr rejects a string too long for the format's u16 length prefix.
func checkStr(s string) error {
	if len(s) > math.MaxUint16 {
		return fmt.Errorf("wire: string too long (%d bytes)", len(s))
	}
	return nil
}

// size returns the bytes written so far, flushed or buffered.
func (w *writer) size() int64 { return w.n + int64(len(w.buf)) }

// maybeFlush flushes once the buffer passes chunkSize.
func (w *writer) maybeFlush() {
	if w.w != nil && len(w.buf) >= chunkSize {
		w.flush()
	}
}

// flush hands the buffer to w and returns the sticky error.
func (w *writer) flush() error {
	if w.w != nil && len(w.buf) > 0 {
		if w.err == nil {
			_, w.err = w.w.Write(w.buf)
		}
		w.n += int64(len(w.buf))
		w.buf = w.buf[:0]
	}
	return w.err
}

// reader wraps buffered little-endian primitives with sticky errors and a
// consumed-byte counter, which the v2 framing uses to verify that every
// length-prefixed record is consumed exactly.
type reader struct {
	r    *bufio.Reader
	err  error
	n    int64 // bytes consumed since the reader was constructed
	base int64 // absolute file offset the count started at (resume support)
	buf  [8]byte
}

// off returns the absolute file offset of the next unread byte, assuming
// the stream was positioned at base when the reader was constructed.
func (r *reader) off() int64 { return r.base + r.n }

// fail records the first error; a mid-structure EOF is always unexpected
// because every read below is driven by a previously decoded count.
func (r *reader) fail(err error) {
	if err == io.EOF {
		err = io.ErrUnexpectedEOF
	}
	if r.err == nil {
		r.err = err
	}
}

// read returns the next k (≤ 8) bytes, or nil after a failure.
func (r *reader) read(k int) []byte {
	if r.err != nil {
		return nil
	}
	if _, err := io.ReadFull(r.r, r.buf[:k]); err != nil {
		r.fail(err)
		return nil
	}
	r.n += int64(k)
	return r.buf[:k]
}

// full fills b from the stream, tracking consumed bytes.
func (r *reader) full(b []byte) {
	if r.err != nil {
		return
	}
	if _, err := io.ReadFull(r.r, b); err != nil {
		r.fail(err)
		return
	}
	r.n += int64(len(b))
}

func (r *reader) u8() uint8 {
	b := r.read(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *reader) u16() uint16 {
	b := r.read(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *reader) u32() uint32 {
	b := r.read(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *reader) u64() uint64 {
	b := r.read(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (r *reader) i16() int16   { return int16(r.u16()) }
func (r *reader) i32() int32   { return int32(r.u32()) }
func (r *reader) f32() float32 { return math.Float32frombits(r.u32()) }
func (r *reader) f64() float64 { return math.Float64frombits(r.u64()) }

func (r *reader) str() string {
	k := int(r.u16())
	if r.err != nil {
		return ""
	}
	b := make([]byte, k)
	r.full(b)
	if r.err != nil {
		return ""
	}
	return string(b)
}

// skipStr discards one length-prefixed string.
func (r *reader) skipStr() {
	k := int(r.u16())
	if r.err != nil {
		return
	}
	r.discard(int64(k))
}

// discard drops k bytes, failing on a short stream.
func (r *reader) discard(k int64) {
	for k > 0 && r.err == nil {
		chunk := k
		if chunk > 1<<30 {
			chunk = 1 << 30
		}
		d, err := r.r.Discard(int(chunk))
		r.n += int64(d)
		if err != nil {
			r.fail(err)
			return
		}
		k -= chunk
	}
}

// count reads a u32 element count and sanity-bounds it so corrupt files
// cannot trigger absurd allocations.
func (r *reader) count(what string, limit uint32) int {
	n := r.u32()
	if r.err == nil && n > limit {
		r.err = corruptf("implausible %s count %d", what, n)
	}
	return int(n)
}
