package experiments

import (
	"bytes"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meshlab/internal/binio"
)

// stateConfig names the accumulator fields, as "type.field", that are
// construction rather than state: a selection's accumulators build them
// the same way, so no merge or snapshot carries them.
var stateConfig = map[string]bool{
	"sharedOnly.run":   true, // the finalizer
	"coverageAcc.band": true, // the band the scopes observe
	"coverageAcc.note": true, // the rendered note
	"bandCore.name":    true, // checked by a Param on restore and merge
	"ext6macAcc.root":  true, // keyed per (network, triple), see state()
}

// cellTarget identifies what a state cell points at: an address and the
// type stored there, so a struct and its first field stay distinct.
type cellTarget struct {
	addr uintptr
	typ  reflect.Type
}

// checkStateCovers fails t unless every field of acc, a pointer to an
// accumulator struct, is the target of one of cells or named in config.
// It recurses into embedded structs and into the elements of non-empty
// slices of structs or pointers (one core per band or scope); a pointer
// field is also covered when a cell holds the pointer itself (the shared
// replay).
func checkStateCovers(t *testing.T, acc any, cells []binio.Cell, config map[string]bool) {
	t.Helper()
	targets := map[cellTarget]bool{}
	for _, c := range cells {
		v := reflect.ValueOf(c)
		for i := range v.NumField() {
			if f := v.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
				targets[cellTarget{f.Pointer(), f.Type().Elem()}] = true
			}
		}
	}
	held := func(p reflect.Value) bool {
		return p.Kind() == reflect.Pointer && !p.IsNil() && targets[cellTarget{p.Pointer(), p.Type().Elem()}]
	}
	var walk func(name string, v reflect.Value)
	walk = func(name string, v reflect.Value) {
		switch {
		case held(v.Addr()), held(v):
		case v.Kind() == reflect.Struct:
			typ := v.Type().Name()
			if i := strings.IndexByte(typ, '['); i >= 0 {
				typ = typ[:i] // a generic type's name without its arguments
			}
			for i := range v.NumField() {
				if f := typ + "." + v.Type().Field(i).Name; !config[f] {
					walk(f, v.Field(i))
				}
			}
		case v.Kind() == reflect.Slice && v.Len() > 0 && (v.Type().Elem().Kind() == reflect.Struct || v.Type().Elem().Kind() == reflect.Pointer):
			for j := range v.Len() {
				walk(fmt.Sprintf("%s[%d]", name, j), v.Index(j))
			}
		default:
			t.Errorf("%T: %s is in no state cell and not configuration", acc, name)
		}
	}
	v := reflect.ValueOf(acc)
	if v.Kind() == reflect.Pointer {
		v = v.Elem()
	} else {
		// A value accumulator (sharedOnly) has no state to point at; walk
		// an addressable copy.
		c := reflect.New(v.Type()).Elem()
		c.Set(v)
		v = c
	}
	walk(v.Type().Name(), v)
}

// TestStateListsCoverEveryField is the check that a field observe writes
// cannot be left out of merge, snapshot and restore: every field of every
// registered accumulator is the target of a state cell or listed in
// stateConfig.
func TestStateListsCoverEveryField(t *testing.T) {
	for _, r := range registry {
		acc := r.newAcc()
		if rr, ok := acc.(replayReader); ok {
			rr.shareReplay(newStrategyReplay())
		}
		checkStateCovers(t, acc, acc.state(), stateConfig)
	}
}

// FuzzStreamRestore feeds StreamContext.Restore arbitrary bytes, seeded
// with real quick-fleet snapshots (a section-less walk and a section run,
// mid-walk and at the end) and their truncations and bit flips. sel picks
// the selection restored into: one experiment by registry slot, or the
// whole suite when out of range, so most seeds are one experiment's small
// snapshot. Restore must never panic, and a restored context must
// snapshot to bytes that restore and snapshot to themselves.
func FuzzStreamRestore(f *testing.F) {
	add := func(sel uint8, snap []byte, variants bool) {
		f.Add(sel, snap)
		if !variants {
			return
		}
		for _, cut := range []int{0, 1, len(snap) / 3, len(snap) / 2, len(snap) - 1} {
			f.Add(sel, snap[:cut])
		}
		for _, at := range []int{0, 9, 17, len(snap) / 2, len(snap) - 8} {
			flipped := bytes.Clone(snap)
			flipped[at] ^= 0x10
			f.Add(sel, flipped)
		}
	}
	for _, snap := range quickSnapshots(f) {
		add(255, snap, true)
	}
	for i, r := range registry {
		if _, shared := r.newAcc().(sharedOnly); !shared {
			for _, snap := range quickSnapshots(f, r.id) {
				add(uint8(i), snap, false)
			}
		}
	}
	resnap := func(t *testing.T, ids []string, data []byte) ([]byte, bool) {
		sc := NewStreamContext(1, ids...)
		defer sc.Drain()
		if err := sc.Restore(bytes.NewReader(data)); err != nil {
			return nil, false
		}
		var buf bytes.Buffer
		if err := sc.Snapshot(&buf); err != nil {
			t.Fatalf("snapshot of a restored context: %v", err)
		}
		return buf.Bytes(), true
	}
	f.Fuzz(func(t *testing.T, sel uint8, data []byte) {
		var ids []string
		if int(sel) < len(registry) {
			ids = []string{registry[sel].id}
		}
		once, ok := resnap(t, ids, data)
		if !ok {
			return
		}
		twice, ok := resnap(t, ids, once)
		if !ok {
			t.Fatal("a restored context's snapshot does not restore")
		}
		if !bytes.Equal(once, twice) {
			t.Fatal("a restored context's snapshot does not snapshot to itself")
		}
	})
}

// quickSnapshots returns snapshots of a run of ids (the whole suite when
// none) over the quick fleet: a section-less walk halfway and at its end,
// and a section run (every network observed, then the sample groups)
// halfway through the feed and at its end.
func quickSnapshots(tb testing.TB, ids ...string) [][]byte {
	fl := quickFleet(tb)
	var snaps [][]byte
	snap := func(sc *StreamContext) {
		var buf bytes.Buffer
		if err := sc.Snapshot(&buf); err != nil {
			tb.Fatal(err)
		}
		snaps = append(snaps, buf.Bytes())
	}
	walk := NewStreamContext(2, ids...)
	defer walk.Drain()
	for i, nd := range fl.Networks {
		if i == len(fl.Networks)/2 {
			snap(walk)
		}
		if err := walk.Observe(nd); err != nil {
			tb.Fatal(err)
		}
	}
	snap(walk)

	section := NewStreamContext(2, ids...)
	defer section.Drain()
	section.DeferSamples()
	for _, nd := range fl.Networks {
		if err := section.Observe(nd); err != nil {
			tb.Fatal(err)
		}
	}
	groups := bandGroups(tb, fl)
	for i, g := range groups {
		if i == len(groups)/2 {
			snap(section)
		}
		if err := section.ObserveSampleGroup(g.band, g.samples); err != nil {
			tb.Fatal(err)
		}
	}
	snap(section)
	return snaps
}
