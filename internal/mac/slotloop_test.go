package mac

import (
	"fmt"
	"math"
	"testing"

	"meshlab/internal/rng"
)

// slotLoop is SimulateTriple as a plain slot-by-slot loop, the referee
// for its fast-forwards: every slot makes its carrier-sense and backoff
// draws one at a time.
func slotLoop(r *rng.Stream, p TripleParams, slots int) TripleResult {
	p = p.withDefaults()
	a := &sender{backoff: 1 + r.Intn(p.MaxBackoff)}
	b := &sender{backoff: 1 + r.Intn(p.MaxBackoff)}

	for t := 0; t < slots; t++ {
		aStarts := loopTick(r, p, a, b.txLeft > 0)
		bStarts := loopTick(r, p, b, a.txLeft > 0)
		if aStarts {
			a.txLeft = p.PacketSlots
			a.txSlots = 0
			a.collided = false
		}
		if bStarts {
			b.txLeft = p.PacketSlots
			b.txSlots = 0
			b.collided = false
		}
		if a.txLeft > 0 && b.txLeft > 0 {
			a.collided = true
			b.collided = true
		}
		loopAdvance(r, p, a)
		loopAdvance(r, p, b)
	}
	res := TripleResult{Slots: slots}
	for _, s := range []*sender{a, b} {
		res.Delivered += s.delivered
		res.Collided += s.lost
		res.Utilization += float64(s.usefulTx)
	}
	if total := res.Delivered + res.Collided; total > 0 {
		res.CollisionFrac = float64(res.Collided) / float64(total)
	}
	res.Utilization /= float64(slots)
	return res
}

func loopTick(r *rng.Stream, p TripleParams, s *sender, otherBusy bool) bool {
	if s.txLeft > 0 {
		return false
	}
	if otherBusy && r.Bool(p.SenseAB) {
		return false
	}
	s.backoff--
	return s.backoff <= 0
}

func loopAdvance(r *rng.Stream, p TripleParams, s *sender) {
	if s.txLeft == 0 {
		return
	}
	s.txLeft--
	s.txSlots++
	if s.txLeft > 0 {
		return
	}
	if s.collided {
		s.lost++
	} else {
		s.delivered++
		s.usefulTx += s.txSlots
	}
	s.backoff = 1 + r.Intn(p.MaxBackoff)
}

// sameResult reports whether two results agree bit for bit.
func sameResult(x, y TripleResult) bool {
	bits := math.Float64bits
	return x.Delivered == y.Delivered && x.Collided == y.Collided && x.Slots == y.Slots &&
		bits(x.CollisionFrac) == bits(y.CollisionFrac) && bits(x.Utilization) == bits(y.Utilization)
}

// checkAgainstSlotLoop runs SimulateTriple and the slot loop from equal
// streams and fails unless their results and the streams' next draws
// agree.
func checkAgainstSlotLoop(t *testing.T, seed uint64, p TripleParams, slots int) {
	t.Helper()
	fast, loop := rng.New(seed), rng.New(seed)
	got := SimulateTriple(fast, p, slots)
	want := slotLoop(loop, p, slots)
	if !sameResult(got, want) {
		t.Fatalf("seed %d %+v slots %d: SimulateTriple %+v, slot loop %+v", seed, p, slots, got, want)
	}
	if g, w := fast.Uint64(), loop.Uint64(); g != w {
		t.Fatalf("seed %d %+v slots %d: next draw %#x, slot loop's %#x", seed, p, slots, g, w)
	}
}

// TestSimulateTripleMatchesSlotLoop covers the edges (sense 0, 1 and NaN,
// one-slot packets and windows, zero and negative slot counts) and
// random shapes.
func TestSimulateTripleMatchesSlotLoop(t *testing.T) {
	senses := []float64{0, 1, math.NaN(), 0.5, -1, 2}
	for _, sense := range senses {
		for _, ps := range []int{0, 1, 2, 10} {
			for _, mb := range []int{0, 1, 2, 16} {
				for _, slots := range []int{-3, 0, 1, 2, 17, 3000} {
					checkAgainstSlotLoop(t, uint64(ps*100+mb), TripleParams{SenseAB: sense, PacketSlots: ps, MaxBackoff: mb}, slots)
				}
			}
		}
	}
	pick := rng.New(11)
	for i := 0; i < 2000; i++ {
		p := TripleParams{
			SenseAB:     pick.Float64(),
			PacketSlots: 1 + pick.Intn(30),
			MaxBackoff:  1 + pick.Intn(40),
		}
		checkAgainstSlotLoop(t, pick.Uint64(), p, pick.Intn(5000))
	}
}

// FuzzSimulateTriple demands equal TripleResult bits and an equal next
// stream draw from SimulateTriple and the slot loop.
func FuzzSimulateTriple(f *testing.F) {
	f.Add(0.0, 10, 16, 20000, uint64(1))
	f.Add(1.0, 10, 16, 20000, uint64(2))
	f.Add(math.NaN(), 10, 16, 500, uint64(3))
	f.Add(0.5, 1, 16, 1000, uint64(4))
	f.Add(0.5, 10, 1, 1000, uint64(5))
	f.Add(0.5, 1, 1, 1000, uint64(6))
	f.Add(0.3, 10, 16, 0, uint64(7))
	f.Add(0.9, 3, 5, 1, uint64(8))
	f.Fuzz(func(t *testing.T, sense float64, packetSlots, maxBackoff, slots int, seed uint64) {
		// Keep each case fast: the referee pays for every slot, and a
		// huge window only makes Intn's rejection loop longer.
		p := TripleParams{
			SenseAB:     sense,
			PacketSlots: packetSlots % 1000,
			MaxBackoff:  maxBackoff % 1000,
		}
		checkAgainstSlotLoop(t, seed, p, slots%50000)
	})
}

// BenchmarkHiddenPenalty runs ext6.mac's per-triple cost: HiddenPenalty
// at 20,000 slots.
func BenchmarkHiddenPenalty(b *testing.B) {
	for _, sense := range []float64{0, 0.5, 1} {
		b.Run(fmt.Sprintf("sense=%g", sense), func(b *testing.B) {
			r := rng.New(1)
			for i := 0; i < b.N; i++ {
				_ = HiddenPenalty(r.SplitN("triple", i), sense, 20000)
			}
		})
	}
}
