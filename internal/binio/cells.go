package binio

// cells.go defines the cell kinds an accumulator describes its persistent
// state with. An accumulator lists its state once, as a []Cell of
// pointers to its fields, and its merge, snapshot and restore are
// MergeCells, WriteCells and ReadCells over that list, so a field cannot
// be folded but not checkpointed, or checkpointed but not folded.
//
// Why the fold is exact. Every state cell is one of:
//   - a counter (Counter, Counts, CountMap): integer addition, which
//     commutes and involves no floating-point reassociation;
//   - a fleet-order list (List, ListMap): values appended once per
//     network in fleet order. Merging concatenates, and the merges run in
//     fleet order (network partials on the collector, shards in shard
//     order), so the merged list is exactly the sequence one serial pass
//     appends;
//   - a core (Core): a chunked §4 table whose own Merge is pinned by its
//     shard-vs-whole oracle.
//
// Why the resume is exact. Every codec writes its value losslessly
// (floats by bit pattern, maps in ascending key order), so a restored
// cell equals the snapshotted one, and continuing the walk from the next
// network appends and adds exactly what the uninterrupted walk would.
//
// A Param is not state: it is a construction value (a band name, a rate
// count) that is written, checked for equality on restore and on merge,
// and never changed.

import (
	"cmp"
	"fmt"
	"io"
	"maps"
	"slices"
)

// Cell is one piece of an accumulator's state.
type Cell interface {
	// Merge folds src, the same cell of another accumulator built the
	// same way, into this one, as if this one had also seen src's input
	// after its own.
	Merge(src Cell) error
	// Write encodes the cell's value.
	Write(w *Writer)
	// Read decodes a value written by Write, replacing the cell's value;
	// a malformed value sets r's error.
	Read(r *Reader)
}

// MergeCells merges src into dst, cell by cell; both lists describe
// accumulators built the same way.
func MergeCells(dst, src []Cell) error {
	if len(dst) != len(src) {
		return fmt.Errorf("binio: merge of %d state cells into %d", len(src), len(dst))
	}
	for i, c := range dst {
		if err := c.Merge(src[i]); err != nil {
			return err
		}
	}
	return nil
}

// WriteCells writes each cell in order and returns w's first error.
func WriteCells(w *Writer, cells []Cell) error {
	for _, c := range cells {
		c.Write(w)
	}
	return w.Err()
}

// ReadCells reads each cell in order and returns r's first error.
func ReadCells(r *Reader, cells []Cell) error {
	for _, c := range cells {
		if c.Read(r); r.Err() != nil {
			break
		}
	}
	return r.Err()
}

// Codec encodes one value of type T. Read reports a malformed value
// through r's error.
type Codec[T any] struct {
	// Min is the fewest bytes one encoded value takes (≥ 1): a list's or
	// map's decoded length is checked against it.
	Min   int
	Write func(*Writer, T)
	Read  func(*Reader) T
	// Compare orders map keys; only a codec used for keys needs it.
	Compare func(a, b T) int
}

// The primitive codecs.
var (
	U8Codec     = Codec[uint8]{Min: 1, Write: (*Writer).U8, Read: (*Reader).U8, Compare: cmp.Compare[uint8]}
	IntCodec    = Codec[int]{Min: 8, Write: (*Writer).Int, Read: (*Reader).Int, Compare: cmp.Compare[int]}
	FloatCodec  = Codec[float64]{Min: 8, Write: (*Writer).F64, Read: (*Reader).F64, Compare: cmp.Compare[float64]}
	StringCodec = Codec[string]{Min: 8, Write: (*Writer).String, Read: (*Reader).String, Compare: cmp.Compare[string]}
)

// ListOf encodes a list as its length (an Int), then each value. An
// empty list decodes as nil.
func ListOf[T any](c Codec[T]) Codec[[]T] {
	return Codec[[]T]{
		Min: 8,
		Write: func(w *Writer, vs []T) {
			w.Int(len(vs))
			for _, v := range vs {
				c.Write(w, v)
			}
		},
		Read: func(r *Reader) []T {
			n := r.Count(c.Min)
			if r.Err() != nil || n == 0 {
				return nil
			}
			vs := make([]T, n)
			for i := range vs {
				vs[i] = c.Read(r)
			}
			return vs
		},
	}
}

// MapOf encodes a map as its entry count (an Int), then, in ascending
// key order, each key and its value. Keys must decode strictly
// ascending, so no entry of a corrupt input silently overwrites another.
func MapOf[K comparable, V any](key Codec[K], val Codec[V]) Codec[map[K]V] {
	return Codec[map[K]V]{
		Min: 8,
		Write: func(w *Writer, m map[K]V) {
			w.Int(len(m))
			for _, k := range slices.SortedFunc(maps.Keys(m), key.Compare) {
				key.Write(w, k)
				val.Write(w, m[k])
			}
		},
		Read: func(r *Reader) map[K]V {
			n := r.Count(key.Min + val.Min)
			m := make(map[K]V, n)
			var prev K
			for i := 0; i < n && r.Err() == nil; i++ {
				k := key.Read(r)
				if i > 0 && key.Compare(prev, k) >= 0 {
					r.Check(fmt.Errorf("binio: snapshot map keys out of order at entry %d", i))
				}
				m[k], prev = val.Read(r), k
			}
			return m
		},
	}
}

// cell is every kind: a field, its codec and its merge.
type cell[T any] struct {
	p     *T
	c     Codec[T]
	merge func(dst *T, src T) error
}

func (c cell[T]) Merge(src Cell) error {
	s, ok := src.(cell[T])
	if !ok {
		return fmt.Errorf("binio: merge of a %T state cell into a %T", src, c)
	}
	return c.merge(c.p, *s.p)
}

func (c cell[T]) Write(w *Writer) { c.c.Write(w, *c.p) }

func (c cell[T]) Read(r *Reader) {
	if v := c.c.Read(r); r.Err() == nil {
		*c.p = v
	}
}

func appendTo[T any](dst *[]T, src []T) error { *dst = append(*dst, src...); return nil }
func addTo(dst *int, src int) error           { *dst += src; return nil }

// mergeByKey merges src into *dst key by key with merge.
func mergeByKey[K comparable, V any](merge func(*V, V) error) func(*map[K]V, map[K]V) error {
	return func(dst *map[K]V, src map[K]V) error {
		if *dst == nil {
			*dst = make(map[K]V, len(src))
		}
		for k, v := range src {
			d := (*dst)[k]
			if err := merge(&d, v); err != nil {
				return err
			}
			(*dst)[k] = d
		}
		return nil
	}
}

// List is a fleet-order list, merged by concatenation, encoded by ListOf.
func List[T any](p *[]T, c Codec[T]) Cell { return cell[[]T]{p, ListOf(c), appendTo[T]} }

// Floats is a fleet-order []float64: a List of FloatCodec values.
func Floats(p *[]float64) Cell { return List(p, FloatCodec) }

// Counter is an int merged by addition, encoded as an Int.
func Counter(p *int) Cell { return cell[int]{p, IntCodec, addTo} }

// Counts is a fixed-shape []int of counters, merged element-wise by
// addition and encoded by ListOf. Merge and restore require the
// accumulator's length.
func Counts(p *[]int) Cell {
	c := ListOf(IntCodec)
	read := c.Read
	c.Read = func(r *Reader) []int {
		vs := read(r)
		if r.Err() == nil && len(vs) != len(*p) {
			r.Check(fmt.Errorf("binio: snapshot has %d counts, accumulator %d", len(vs), len(*p)))
		}
		return vs
	}
	return cell[[]int]{p, c, func(dst *[]int, src []int) error {
		if len(src) != len(*dst) {
			return fmt.Errorf("binio: merge of %d counts into %d", len(src), len(*dst))
		}
		for i, n := range src {
			(*dst)[i] += n
		}
		return nil
	}}
}

// ListMap is a map of fleet-order lists, merged key by key by
// concatenation, encoded by MapOf with ListOf values.
func ListMap[K comparable, V any](p *map[K][]V, key Codec[K], val Codec[V]) Cell {
	return cell[map[K][]V]{p, MapOf(key, ListOf(val)), mergeByKey[K](appendTo[V])}
}

// CountMap is a map of counters, merged key by key by addition, encoded
// by MapOf with Int values.
func CountMap[K comparable](p *map[K]int, key Codec[K]) Cell {
	return cell[map[K]int]{p, MapOf(key, IntCodec), mergeByKey[K](addTo)}
}

// Param is a construction value, not state: it encodes as c writes v,
// and restore and merge require it to equal the accumulator's own. It
// carries the structural checks (versions, rate counts, band names) that
// keep a snapshot from loading into a differently built accumulator.
func Param[T comparable](name string, v T, c Codec[T]) Cell {
	read := c.Read
	c.Read = func(r *Reader) T {
		got := read(r)
		if r.Err() == nil && got != v {
			r.Check(fmt.Errorf("binio: snapshot %s %v, accumulator %v", name, got, v))
		}
		return got
	}
	return cell[T]{&v, c, func(dst *T, src T) error {
		if src != *dst {
			return fmt.Errorf("binio: merge of %s %v into %v", name, src, *dst)
		}
		return nil
	}}
}

// Mergeable is a state core with its own merge and versioned snapshot —
// one of the chunked §4 cores of internal/snr.
type Mergeable[T any] interface {
	Merge(T)
	Snapshot(io.Writer) error
	Restore(io.Reader) error
}

// Core is a state core held at *p: merge, write and read delegate to its
// Merge, Snapshot and Restore.
func Core[T Mergeable[T]](p *T) Cell {
	return cell[T]{p, Codec[T]{
		Write: func(w *Writer, c T) { w.Check(c.Snapshot(w)) },
		Read:  func(r *Reader) T { r.Check((*p).Restore(r)); return *p },
	}, func(dst *T, src T) error { (*dst).Merge(src); return nil }}
}
