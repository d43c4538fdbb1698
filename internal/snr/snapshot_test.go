package snr

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"reflect"
	"testing"

	"meshlab/internal/binio"
)

// chunkCore is the shape every chunked §4 core shares; the snapshot
// oracle drives them uniformly.
type chunkCore interface {
	ObserveGroup(*GroupView)
	Snapshot(w io.Writer) error
	Restore(r io.Reader) error
}

type snapCase struct {
	name  string
	fresh func() chunkCore
	fin   func(chunkCore) any
}

func snapCases() []snapCase {
	const numRates = 7
	cases := []snapCase{
		{
			name:  "penalty",
			fresh: func() chunkCore { return NewPenaltyAccum(numRates, Scopes) },
			fin:   func(c chunkCore) any { return c.(*PenaltyAccum).FinalizeDists() },
		},
		{
			name:  "tput",
			fresh: func() chunkCore { return NewTputAccum(numRates, 2) },
			fin:   func(c chunkCore) any { return c.(*TputAccum).Finalize() },
		},
		{
			name:  "rateset",
			fresh: func() chunkCore { return NewRateSetAccum() },
			fin:   func(c chunkCore) any { return c.(*RateSetAccum).Finalize() },
		},
		{
			name:  "strategy",
			fresh: func() chunkCore { return NewStrategyAccum(numRates, 20) },
			fin:   func(c chunkCore) any { return c.(*StrategyAccum).Finalize() },
		},
		{
			name:  "topk",
			fresh: func() chunkCore { return NewTopKAccum(numRates, []int{1, 2, 3}) },
			fin:   func(c chunkCore) any { return c.(*TopKAccum).Finalize() },
		},
	}
	for _, sc := range Scopes {
		sc := sc
		cases = append(cases, snapCase{
			name:  "coverage/" + sc.String(),
			fresh: func() chunkCore { return NewCoverageAccum(numRates, sc, 8) },
			fin:   func(c chunkCore) any { return c.(*CoverageAccum).Finalize() },
		})
	}
	return cases
}

// sampleGroups materializes the fixture's per-network groups so the
// oracle can split the stream at a network boundary.
func sampleGroups(t *testing.T) [][]Sample {
	t.Helper()
	var groups [][]Sample
	if err := ForEachSampleGroup(simulated(t), func(g []Sample) error {
		groups = append(groups, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if len(groups) < 3 {
		t.Fatalf("only %d groups; the snapshot oracle needs a mid-stream boundary", len(groups))
	}
	return groups
}

// TestSnapshotRestoreContinueMatchesUninterrupted is the core snapshot
// oracle: for every chunked core, (a) taking a snapshot mid-stream must
// not disturb the run that continues, and (b) restoring the snapshot
// into a fresh core and feeding the remaining groups must finalize
// identically to the uninterrupted run.
func TestSnapshotRestoreContinueMatchesUninterrupted(t *testing.T) {
	groups := sampleGroups(t)
	splits := []int{1, len(groups) / 2, len(groups) - 1}
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			full := tc.fresh()
			for _, g := range groups {
				full.ObserveGroup(NewGroupView(g))
			}
			want := tc.fin(full)

			for _, mid := range splits {
				orig := tc.fresh()
				for _, g := range groups[:mid] {
					orig.ObserveGroup(NewGroupView(g))
				}
				var buf bytes.Buffer
				if err := orig.Snapshot(&buf); err != nil {
					t.Fatalf("split %d: snapshot: %v", mid, err)
				}

				restored := tc.fresh()
				if err := restored.Restore(bytes.NewReader(buf.Bytes())); err != nil {
					t.Fatalf("split %d: restore: %v", mid, err)
				}
				for _, g := range groups[mid:] {
					orig.ObserveGroup(NewGroupView(g))
					restored.ObserveGroup(NewGroupView(g))
				}
				if got := tc.fin(orig); !reflect.DeepEqual(got, want) {
					t.Errorf("split %d: continued-after-snapshot run diverged from uninterrupted", mid)
				}
				if got := tc.fin(restored); !reflect.DeepEqual(got, want) {
					t.Errorf("split %d: restored run diverged from uninterrupted", mid)
				}
			}
		})
	}
}

// TestRestoreRejectsCorruptSnapshots: truncations and bit flips must
// error contextually, never panic.
func TestRestoreRejectsCorruptSnapshots(t *testing.T) {
	groups := sampleGroups(t)
	for _, tc := range snapCases() {
		t.Run(tc.name, func(t *testing.T) {
			src := tc.fresh()
			for _, g := range groups[:len(groups)/2] {
				src.ObserveGroup(NewGroupView(g))
			}
			var buf bytes.Buffer
			if err := src.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			snap := buf.Bytes()

			// Every truncation must fail (except length 0 handled below too).
			for cut := 0; cut < len(snap); cut += 1 + len(snap)/64 {
				if err := tc.fresh().Restore(bytes.NewReader(snap[:cut])); err == nil {
					t.Fatalf("truncation at %d/%d restored without error", cut, len(snap))
				}
			}
			// A version flip must fail.
			flipped := append([]byte(nil), snap...)
			flipped[0] ^= 0xFF
			if err := tc.fresh().Restore(bytes.NewReader(flipped)); err == nil {
				t.Fatal("version-flipped snapshot restored without error")
			}
		})
	}
}

// TestRestoreRejectsShapeMismatch: a snapshot taken under one
// construction must not restore into a differently shaped core.
func TestRestoreRejectsShapeMismatch(t *testing.T) {
	groups := sampleGroups(t)
	src := NewPenaltyAccum(7, Scopes)
	for _, g := range groups[:2] {
		src.ObserveGroup(NewGroupView(g))
	}
	var buf bytes.Buffer
	if err := src.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := NewPenaltyAccum(5, Scopes).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("rate-count mismatch restored without error")
	}
	if err := NewPenaltyAccum(7, []Scope{Global}).Restore(bytes.NewReader(buf.Bytes())); err == nil {
		t.Fatal("scope-set mismatch restored without error")
	}
}

// snapshotDigests are the sha256 digests of every core's snapshot after
// the first network and after half the fixture's networks, recorded from
// the map-keyed kernels the dense ones replaced. Equal bytes mean
// checkpoints written by either implementation resume under the other.
var snapshotDigests = map[string][2]string{
	"penalty":          {"7de93287b494e029f69b00ded3e1ae0c518754f63da304c9c03cd72c5b119a8d", "232366e91b1db03cf2fbc2f979031601a120e1030e85d74530370a71e222b357"},
	"tput":             {"0a706cf613a492733b06f6b31e1c9cbb2b2a67af79d6ae084363af8b307c7d19", "d35b9a784db3f377988dc80d6f69896d6cbfadceed88ef6ac4c6d35de8363718"},
	"rateset":          {"ed8a5041c31c3028cbc4f45cb568433f852aaa40c17aba5a64fa4f539442a3ca", "a5757fe5ee0b3cd6f84cc16b7965ba722bc1f5e0edefcf16b0e91fa6cb08cf38"},
	"strategy":         {"d37120cca02f497bdc528683fc381391e1cc69e8893530aef52cc96b3810d415", "68e0526bb1751c6155f881e34bdb8a6cbb2891881233400e0e9df48ca4d31f42"},
	"topk":             {"6fcb58c3b38ce125e78241c3f38fa915d0a1b652948fde3a60b93c856839fbba", "de16f26878c29a4ac9efe187be84fcd668cd2da32adf0386d1cdcb18df115f91"},
	"coverage/global":  {"c9323da80deeb16498bf503b900436519131740500314495c27511a619bc1585", "5eac508e2c68b9320665ce60e2670b94e5f82e40b619fa0b20da11628df62046"},
	"coverage/network": {"2856e90e7fcd9f97a785f0a991be3c033b26dd46a0b1b5b95b93e6036feb0b47", "b916a617281f3ce885fbfbabf4af56373946b7f17e0739530d53089b0c140caf"},
	"coverage/ap":      {"26b9906c2a6d85a8873eafcd2dd7a7d026803ce9e4f32043e07d6ceb6403a869", "f6377debc1384c5ca8ead5eb1017b153882cc91a586fc1d9c3e9d504e503d407"},
	"coverage/link":    {"808eaea186529a76fa20b6e2cc48c95cfc34e4f14c103d6cc9448b76d2bf5aac", "58755204c568300ce7b78026f87a059779ecc9ab134229520cc45b9f0b57d7c1"},
}

// TestSnapshotBytesPinned: every core's mid-fleet snapshot serializes
// exactly the pinned bytes, both at whole-network feeding and when each
// network arrives as link-aligned sub-chunks (which drives the penalty
// core's AP and Network banking).
func TestSnapshotBytesPinned(t *testing.T) {
	groups := sampleGroups(t)
	mids := [2]int{1, len(groups) / 2}
	for _, tc := range snapCases() {
		want, ok := snapshotDigests[tc.name]
		if !ok {
			t.Fatalf("%s: no pinned digest", tc.name)
		}
		for m, mid := range mids {
			for _, subChunks := range []bool{false, true} {
				c := tc.fresh()
				for _, g := range groups[:mid] {
					if subChunks && len(g) > 16 {
						c.ObserveGroup(NewGroupView(g[:linkBoundary(g, len(g)/2)]))
						c.ObserveGroup(NewGroupView(g[linkBoundary(g, len(g)/2):]))
					} else {
						c.ObserveGroup(NewGroupView(g))
					}
				}
				var buf bytes.Buffer
				if err := c.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				sum := sha256.Sum256(buf.Bytes())
				if got := hex.EncodeToString(sum[:]); got != want[m] {
					t.Errorf("%s after %d networks (sub-chunks %v): snapshot digest %s, pinned %s", tc.name, mid, subChunks, got, want[m])
				}
			}
		}
	}
}

// linkBoundary returns the first index at or after i where a new directed
// link starts (len(g) if none).
func linkBoundary(g []Sample, i int) int {
	for ; i < len(g) && i > 0; i++ {
		if g[i].From != g[i-1].From || g[i].To != g[i-1].To {
			return i
		}
	}
	return len(g)
}

// cellTarget identifies what a state cell points at: an address and the
// type stored there, so a struct and its first field stay distinct.
type cellTarget struct {
	addr uintptr
	typ  reflect.Type
}

// TestStateListsCoverEveryField: every field of the cores described by
// state() is the target of a state cell, or is construction or per-chunk
// scratch — so a counter added to a core cannot be left out of its
// merge, snapshot and restore. It is the walk internal/experiments runs
// over its accumulators, for the two cores kept on cells.
func TestStateListsCoverEveryField(t *testing.T) {
	config := map[string]bool{
		"StrategyAccum.numRates": true, "StrategyAccum.maxX": true, // checked by Params
		"StrategyAccum.seq": true, "StrategyAccum.pred": true, "StrategyAccum.counts": true, // scratch
		"StrategyResult.Strategy": true,
		"TopKAccum.numRates":      true, "TopKAccum.ks": true, // checked by Params
		"TopKAccum.rate": true, "TopKAccum.ranks": true, // scratch
	}
	for _, acc := range []interface{ state() []binio.Cell }{NewStrategyAccum(7, 20), NewTopKAccum(7, []int{1, 2, 3})} {
		targets := map[cellTarget]bool{}
		for _, c := range acc.state() {
			v := reflect.ValueOf(c)
			for i := range v.NumField() {
				if f := v.Field(i); f.Kind() == reflect.Pointer && !f.IsNil() {
					targets[cellTarget{f.Pointer(), f.Type().Elem()}] = true
				}
			}
		}
		var walk func(v reflect.Value)
		walk = func(v reflect.Value) {
			for i := range v.NumField() {
				f := v.Field(i)
				switch name := v.Type().Name() + "." + v.Type().Field(i).Name; {
				case config[name], targets[cellTarget{f.Addr().Pointer(), f.Type()}]:
				case f.Kind() == reflect.Slice && f.Type().Elem().Kind() == reflect.Struct:
					for j := range f.Len() {
						walk(f.Index(j))
					}
				default:
					t.Errorf("%T: %s is in no state cell and not configuration", acc, name)
				}
			}
		}
		walk(reflect.ValueOf(acc).Elem())
	}
}
