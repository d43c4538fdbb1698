// Package rng provides deterministic, splittable random number streams.
//
// Every stochastic component of meshlab (topology synthesis, channel
// processes, client mobility) draws from an rng.Stream derived from a single
// root seed, so a whole fleet of networks — and therefore every experiment —
// is exactly reproducible from one uint64. Streams are split by string
// labels: two streams split from the same parent with different labels are
// statistically independent, and the same label always yields the same
// stream. This keeps independent subsystems independent: adding a draw to
// the topology generator cannot perturb the channel process.
package rng

import (
	"hash/fnv"
	"math"
)

// Stream is a deterministic pseudo-random stream. The zero value is a valid
// stream seeded with zero. Stream implements a SplitMix64-seeded
// xoshiro256** generator; it is not safe for concurrent use — split a child
// stream per goroutine instead.
type Stream struct {
	s [4]uint64
	// id is immutable seed-derived identity used by Split/SplitN so that
	// splitting does not depend on how much the parent has been consumed.
	id uint64
	// spare holds a cached second normal deviate from the Box-Muller
	// transform; spareOK reports whether it is valid.
	spare   float64
	spareOK bool
}

// splitmix64 advances x and returns the next SplitMix64 output. It is used
// only to expand seeds into full generator state.
func splitmix64(x *uint64) uint64 {
	*x += 0x9e3779b97f4a7c15
	z := *x
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

// New returns a Stream seeded from seed.
func New(seed uint64) *Stream {
	st := &Stream{}
	x := seed
	st.id = splitmix64(&x)
	for i := range st.s {
		st.s[i] = splitmix64(&x)
	}
	// xoshiro must not start in the all-zero state; seed 0 through
	// splitmix64 never produces it, but guard anyway.
	if st.s[0]|st.s[1]|st.s[2]|st.s[3] == 0 {
		st.s[0] = 1
	}
	return st
}

// Split derives an independent child stream identified by label. Splitting
// does not advance the parent, so the set of children is stable no matter
// how much the parent itself is used after the split.
func (r *Stream) Split(label string) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	return New(r.id ^ 0x9e3779b97f4a7c15 ^ h.Sum64())
}

// SplitN derives an independent child stream identified by label and an
// index, for per-element substreams (one per AP, per link, per client).
func (r *Stream) SplitN(label string, n int) *Stream {
	h := fnv.New64a()
	_, _ = h.Write([]byte(label))
	var buf [8]byte
	v := uint64(n)
	for i := 0; i < 8; i++ {
		buf[i] = byte(v >> (8 * i))
	}
	_, _ = h.Write(buf[:])
	return New(r.id ^ 0x9e3779b97f4a7c15 ^ h.Sum64())
}

func rotl(x uint64, k uint) uint64 { return x<<k | x>>(64-k) }

// Uint64 returns the next 64 uniformly distributed bits.
func (r *Stream) Uint64() uint64 {
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		// Lazily seed the zero value: all-zero is the one state
		// xoshiro cannot leave.
		*r = *New(0)
	}
	result := rotl(r.s[1]*5, 7) * 9
	t := r.s[1] << 17
	r.s[2] ^= r.s[0]
	r.s[3] ^= r.s[1]
	r.s[1] ^= r.s[2]
	r.s[0] ^= r.s[3]
	r.s[2] ^= t
	r.s[3] = rotl(r.s[3], 45)
	return result
}

// Float64 returns a uniform float64 in [0, 1).
func (r *Stream) Float64() float64 {
	return float64(r.Uint64()>>11) / (1 << 53)
}

// Intn returns a uniform int in [0, n). It panics if n <= 0.
func (r *Stream) Intn(n int) int {
	if n <= 0 {
		panic("rng: Intn with non-positive n")
	}
	// Lemire's nearly-divisionless bounded generation is overkill here;
	// simple rejection keeps the stream reproducible and unbiased.
	max := uint64(n)
	limit := math.MaxUint64 - math.MaxUint64%max
	for {
		v := r.Uint64()
		if v < limit {
			return int(v % max)
		}
	}
}

// NormFloat64 returns a standard normal deviate via the Box-Muller
// transform (polar form), caching the second deviate.
func (r *Stream) NormFloat64() float64 {
	if r.spareOK {
		r.spareOK = false
		return r.spare
	}
	for {
		u := 2*r.Float64() - 1
		v := 2*r.Float64() - 1
		s := u*u + v*v
		if s >= 1 || s == 0 {
			continue
		}
		f := math.Sqrt(-2 * math.Log(s) / s)
		r.spare = v * f
		r.spareOK = true
		return u * f
	}
}

// ExpFloat64 returns an exponentially distributed deviate with mean 1.
func (r *Stream) ExpFloat64() float64 {
	for {
		u := r.Float64()
		if u > 0 {
			return -math.Log(u)
		}
	}
}

// Bool returns true with probability p.
func (r *Stream) Bool(p float64) bool { return r.Float64() < p }

// BoolMisses makes the Bool(p) draws of a loop that stops after n draws
// or right after the limit-th false outcome (a miss), whichever comes
// first, and returns how many draws it made and how many missed. It
// consumes exactly the Float64 sequence those Bool calls would, so the
// stream is left where the loop would leave it; it draws nothing when
// n ≤ 0 or limit ≤ 0.
func (r *Stream) BoolMisses(p float64, n, limit int) (draws, misses int) {
	if n <= 0 || limit <= 0 {
		return 0, 0
	}
	if r.s[0]|r.s[1]|r.s[2]|r.s[3] == 0 {
		*r = *New(0) // as Uint64 seeds a zero value on its first draw
	}
	// Float64 is k/2⁵³ for k = Uint64()>>11, so Float64() < p exactly
	// when k < ⌈p·2⁵³⌉ (the product is exact): hit is 0 for every k when
	// p ≤ 0 or NaN, and 2⁵³ passes every k when p ≥ 1.
	var hit uint64
	switch {
	case p >= 1:
		hit = 1 << 53
	case p > 0:
		hit = uint64(math.Ceil(p * (1 << 53)))
	}
	// Uint64 inlined over a register copy of the state, written back
	// once.
	s0, s1, s2, s3 := r.s[0], r.s[1], r.s[2], r.s[3]
	for draws < n {
		u := rotl(s1*5, 7) * 9
		t := s1 << 17
		s2 ^= s0
		s3 ^= s1
		s1 ^= s2
		s0 ^= s3
		s2 ^= t
		s3 = rotl(s3, 45)
		draws++
		// k < hit wraps k−hit to a set top bit (both are below 2⁵⁴).
		misses += int(1 ^ (u>>11-hit)>>63)
		if misses == limit {
			break
		}
	}
	r.s = [4]uint64{s0, s1, s2, s3}
	return draws, misses
}

// Range returns a uniform float64 in [lo, hi).
func (r *Stream) Range(lo, hi float64) float64 { return lo + (hi-lo)*r.Float64() }

// Perm returns a random permutation of [0, n).
func (r *Stream) Perm(n int) []int {
	p := make([]int, n)
	for i := range p {
		p[i] = i
	}
	for i := n - 1; i > 0; i-- {
		j := r.Intn(i + 1)
		p[i], p[j] = p[j], p[i]
	}
	return p
}

// Choice returns a uniform index into weights proportionally to the weight
// values, which must be non-negative and not all zero.
func (r *Stream) Choice(weights []float64) int {
	var total float64
	for _, w := range weights {
		if w < 0 {
			panic("rng: negative weight")
		}
		total += w
	}
	if total <= 0 {
		panic("rng: all weights zero")
	}
	x := r.Float64() * total
	for i, w := range weights {
		x -= w
		if x < 0 {
			return i
		}
	}
	return len(weights) - 1
}
