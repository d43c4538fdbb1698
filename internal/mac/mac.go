// Package mac simulates the MAC-level consequence of the topologies §6
// counts: two saturated senders A and B sharing a receiver C under slotted
// CSMA/CA with imperfect carrier sense. When A and B can hear each other,
// carrier sense serializes them; when they cannot (a hidden triple), their
// transmissions overlap at C and collide. The thesis motivates its census
// with exactly this cost — "interference from hidden terminals can affect
// even an ideal rate adaptation protocol" — but cannot measure it from
// probe data; this simulator closes that loop for the reproduction's
// extension experiment (ext6.mac).
package mac

import (
	"meshlab/internal/rng"
)

// TripleParams configures one A,B→C contention simulation.
type TripleParams struct {
	// SenseAB is the probability per backoff slot that one sender
	// detects the other's ongoing transmission (symmetric). 1 models
	// perfect carrier sense, 0 a fully hidden pair. Real pairs sit in
	// between: use their mutual delivery probability at the base rate.
	SenseAB float64
	// PacketSlots is a data transmission's duration in slots (default
	// 10).
	PacketSlots int
	// MaxBackoff is the contention-window upper bound in slots (default
	// 16): after each transmission a sender draws a fresh backoff
	// uniformly from [1, MaxBackoff].
	MaxBackoff int
}

func (p TripleParams) withDefaults() TripleParams {
	if p.PacketSlots <= 0 {
		p.PacketSlots = 10
	}
	if p.MaxBackoff <= 0 {
		p.MaxBackoff = 16
	}
	if p.SenseAB < 0 {
		p.SenseAB = 0
	}
	if p.SenseAB > 1 {
		p.SenseAB = 1
	}
	return p
}

// TripleResult summarizes a contention simulation.
type TripleResult struct {
	// Delivered and Collided count completed transmissions by outcome;
	// a transmission collides when any of its slots overlapped the
	// other sender's transmission.
	Delivered, Collided int
	// Slots is the simulated duration.
	Slots int
	// CollisionFrac is Collided / (Delivered + Collided).
	CollisionFrac float64
	// Utilization is the fraction of slots carrying a transmission that
	// was ultimately delivered.
	Utilization float64
}

// sender is one contender's MAC state.
type sender struct {
	backoff   int
	txLeft    int
	collided  bool
	delivered int
	lost      int
	usefulTx  int // slots spent on transmissions that were delivered
	txSlots   int // slots of the current transmission so far
}

// SimulateTriple runs the slotted contention model for the given number of
// slots and returns aggregate outcomes for both senders combined.
//
// Most slots draw nothing, so the loop skips them in O(1): while both
// senders count down it jumps to the first backoff expiry, and while both
// transmit it jumps to the first transmission end. While exactly one
// transmits, the idle sender's carrier-sense draws up to the end of that
// transmission are made in one batch (rng.Stream.BoolMisses), which stops
// right after the miss that expires its backoff. The slot that starts or
// ends a transmission then runs as a plain slot, so the stream sees the
// same draws, in the same order, as a slot-by-slot loop.
func SimulateTriple(r *rng.Stream, p TripleParams, slots int) TripleResult {
	p = p.withDefaults()
	a := &sender{backoff: 1 + r.Intn(p.MaxBackoff)}
	b := &sender{backoff: 1 + r.Intn(p.MaxBackoff)}

	for t := 0; t < slots; {
		left := slots - t
		switch {
		case a.txLeft == 0 && b.txLeft == 0:
			// Both count down without drawing until one expires.
			k := min(a.backoff, b.backoff, left) - 1
			a.backoff -= k
			b.backoff -= k
			t += k
		case a.txLeft > 0 && b.txLeft > 0:
			// Both transmit (and have collided) until one ends.
			k := min(a.txLeft, b.txLeft, left) - 1
			a.burn(k)
			b.burn(k)
			t += k
		default:
			tx, idle := a, b
			if b.txLeft > 0 {
				tx, idle = b, a
			}
			// The idle sender listens each slot before tx's last.
			draws, misses := r.BoolMisses(p.SenseAB, min(tx.txLeft-1, left), idle.backoff)
			idle.backoff -= misses
			if idle.backoff == 0 {
				// The last draw expired idle's backoff: finish that slot.
				tx.burn(draws - 1)
				t += draws
				occupy(r, p, a, b, idle == a, idle == b)
				continue
			}
			// Next comes tx's last slot, or the end.
			tx.burn(draws)
			t += draws
		}
		if t < slots {
			// A plain slot. Phase 1: idle senders observe the channel
			// as it was at the start of the slot, then count down or
			// start transmitting.
			aStarts := tick(r, p, a, b.txLeft > 0)
			bStarts := tick(r, p, b, a.txLeft > 0)
			occupy(r, p, a, b, aStarts, bStarts)
			t++
		}
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

// occupy runs the rest of a slot once phase 1 has decided who starts.
func occupy(r *rng.Stream, p TripleParams, a, b *sender, aStarts, bStarts bool) {
	if aStarts {
		a.start(p)
	}
	if bStarts {
		b.start(p)
	}
	// Phase 2: active transmissions occupy this slot; overlap marks both
	// as collided.
	if a.txLeft > 0 && b.txLeft > 0 {
		a.collided = true
		b.collided = true
	}
	advance(r, p, a)
	advance(r, p, b)
}

func (s *sender) start(p TripleParams) {
	s.txLeft = p.PacketSlots
	s.txSlots = 0
	s.collided = false
}

// burn advances an active transmission by k slots that do not end it.
func (s *sender) burn(k int) {
	s.txLeft -= k
	s.txSlots += k
}

// tick advances an idle sender's backoff, returning true when it begins
// transmitting this slot. otherBusy reports whether the peer was
// transmitting at the slot boundary.
func tick(r *rng.Stream, p TripleParams, s *sender, otherBusy bool) bool {
	if s.txLeft > 0 {
		return false
	}
	if otherBusy && r.Bool(p.SenseAB) {
		return false // sensed busy: freeze the backoff
	}
	s.backoff--
	return s.backoff <= 0
}

// advance burns one slot of an active transmission and settles it on
// completion.
func advance(r *rng.Stream, p TripleParams, s *sender) {
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

// HiddenPenalty runs the simulation at the given mutual sense probability
// and at perfect carrier sense, returning the relative throughput loss
// the imperfect pair suffers: 1 − utilization(sense)/utilization(1).
func HiddenPenalty(r *rng.Stream, sense float64, slots int) float64 {
	base := SimulateTriple(r.Split("perfect"), TripleParams{SenseAB: 1}, slots)
	got := SimulateTriple(r.Split("actual"), TripleParams{SenseAB: sense}, slots)
	if base.Utilization <= 0 {
		return 0
	}
	pen := 1 - got.Utilization/base.Utilization
	if pen < 0 {
		pen = 0
	}
	return pen
}
