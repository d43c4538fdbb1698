package snr

import (
	"bytes"
	"math"
	"testing"
)

// offGridSamples copies the fixture and moves a share of its throughputs
// off the quantized grid: a value nudged by one ulp, a −0, a NaN at a
// non-optimal rate, and a BestTput that is not its rate's level. The rest
// stay on the grid, so one group mixes both counters; among them are
// samples whose BestTput is level 0, whose penalties must clamp to 0.
func offGridSamples(t testing.TB) []Sample {
	t.Helper()
	src := simulated(t)
	out := make([]Sample, len(src))
	for i, s := range src {
		s.Tput = append([]float64(nil), s.Tput...)
		other := (s.Popt + 1) % len(s.Tput)
		switch i % 11 {
		case 1:
			s.Tput[other] = math.Nextafter(s.Tput[other], math.Inf(1))
		case 4:
			s.Tput[other] = math.Copysign(0, -1)
		case 6:
			s.Tput[other] = math.NaN()
		case 9:
			s.BestTput = math.Nextafter(s.BestTput, 0)
		case 10:
			// On the grid, but below the other rates: every penalty
			// clamps to 0 on the dense path too.
			s.BestTput = 0
		}
		out[i] = s
	}
	return out
}

// tableOnly switches a core to the value-keyed countTable path alone, the
// path every value took before the dense counters.
func tableOnly(c chunkCore) chunkCore {
	switch a := c.(type) {
	case *PenaltyAccum:
		for i := range a.states {
			a.states[i].diffs.grid = nil
		}
	case *TputAccum:
		a.grid = nil
	}
	return c
}

// TestDenseCountersHandOffOffGrid: on groups that mix on-grid and
// off-grid throughputs, the penalty and throughput cores snapshot the
// same bytes, mid-stream and at the end, as they do with every value
// counted by the countTable path, whether networks arrive whole or as
// link-aligned sub-chunks.
func TestDenseCountersHandOffOffGrid(t *testing.T) {
	samples := offGridSamples(t)
	lv := NewGroupView(samples).levelsOf(gridFor(7))
	on, off := 0, 0
	for i := 0; i < len(lv); i += 8 {
		if lv[i] == offGrid {
			off++
		} else {
			on++
		}
	}
	if on == 0 || off == 0 {
		t.Fatalf("%d on-grid and %d off-grid samples: the fixture must mix both", on, off)
	}
	cores := map[string]func() chunkCore{
		"penalty": func() chunkCore { return NewPenaltyAccum(7, Scopes) },
		"tput":    func() chunkCore { return NewTputAccum(7, 2) },
	}
	snap := func(c chunkCore) []byte {
		var buf bytes.Buffer
		if err := c.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}
	for name, fresh := range cores {
		for _, sub := range []bool{false, true} {
			dense, table := fresh(), tableOnly(fresh())
			var snaps [2][][]byte
			for k, c := range []chunkCore{dense, table} {
				n := 0
				feed := func(v *GroupView) {
					c.ObserveGroup(v)
					if n++; n == 3 {
						snaps[k] = append(snaps[k], snap(c))
					}
				}
				if sub {
					feedLinkChunks(t, samples, 16, feed)
				} else {
					feedGroups(t, samples, feed)
				}
				snaps[k] = append(snaps[k], snap(c))
			}
			for i := range snaps[0] {
				if !bytes.Equal(snaps[0][i], snaps[1][i]) {
					t.Fatalf("%s (sub-chunks %v), snapshot %d: dense counters differ from the countTable path", name, sub, i)
				}
			}
		}
	}
}

// TestQuantGridLevels: every grid value maps back to its level, and
// values beside the grid do not.
func TestQuantGridLevels(t *testing.T) {
	for _, g := range knownGrids {
		for r := 0; r < g.nr; r++ {
			for d := 0; d < levels; d++ {
				v := g.vals[r*levels+d]
				if got, ok := g.level(r, v); !ok || int(got) != d {
					t.Fatalf("rate %d level %d (%v): level() = %d, %v", r, d, v, got, ok)
				}
				if _, ok := g.level(r, math.Nextafter(v, math.Inf(1))); ok {
					t.Fatalf("rate %d: a value one ulp above level %d is on the grid", r, d)
				}
			}
			for _, v := range []float64{math.NaN(), math.Inf(1), -1, math.Copysign(0, -1), g.mbps[r] * 2} {
				if _, ok := g.level(r, v); ok {
					t.Fatalf("rate %d: %v is on the grid", r, v)
				}
			}
		}
	}
}
