package rng

import (
	"math"
	"testing"
	"testing/quick"
)

func TestDeterminism(t *testing.T) {
	a := New(42)
	b := New(42)
	for i := 0; i < 1000; i++ {
		if a.Uint64() != b.Uint64() {
			t.Fatalf("streams with equal seeds diverged at draw %d", i)
		}
	}
}

func TestDifferentSeedsDiffer(t *testing.T) {
	a := New(1)
	b := New(2)
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams with different seeds produced %d identical draws", same)
	}
}

func TestSplitStability(t *testing.T) {
	parent := New(7)
	c1 := parent.Split("channel")
	// Burn draws on the parent; the split must not depend on parent use.
	for i := 0; i < 57; i++ {
		parent.Float64()
	}
	c2 := parent.Split("channel")
	for i := 0; i < 100; i++ {
		if c1.Uint64() != c2.Uint64() {
			t.Fatal("Split is not stable under parent stream consumption")
		}
	}
}

func TestSplitIndependence(t *testing.T) {
	parent := New(7)
	a := parent.Split("a")
	b := parent.Split("b")
	same := 0
	for i := 0; i < 100; i++ {
		if a.Uint64() == b.Uint64() {
			same++
		}
	}
	if same > 0 {
		t.Fatalf("streams split with different labels collided %d times", same)
	}
}

func TestSplitNDistinct(t *testing.T) {
	parent := New(3)
	seen := map[uint64]int{}
	for n := 0; n < 200; n++ {
		v := parent.SplitN("link", n).Uint64()
		if prev, ok := seen[v]; ok {
			t.Fatalf("SplitN(%d) first draw equals SplitN(%d)", n, prev)
		}
		seen[v] = n
	}
}

func TestFloat64Bounds(t *testing.T) {
	r := New(11)
	for i := 0; i < 10000; i++ {
		f := r.Float64()
		if f < 0 || f >= 1 {
			t.Fatalf("Float64 out of [0,1): %v", f)
		}
	}
}

func TestFloat64Mean(t *testing.T) {
	r := New(5)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		sum += r.Float64()
	}
	mean := sum / n
	if math.Abs(mean-0.5) > 0.005 {
		t.Fatalf("Float64 mean %v too far from 0.5", mean)
	}
}

func TestIntnBoundsProperty(t *testing.T) {
	r := New(17)
	f := func(n uint16) bool {
		m := int(n%1000) + 1
		v := r.Intn(m)
		return v >= 0 && v < m
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestIntnPanicsOnNonPositive(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Intn(0) did not panic")
		}
	}()
	New(1).Intn(0)
}

func TestIntnUniform(t *testing.T) {
	r := New(23)
	counts := make([]int, 10)
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Intn(10)]++
	}
	for d, c := range counts {
		if math.Abs(float64(c)-n/10) > 600 {
			t.Fatalf("digit %d count %d deviates too much from %d", d, c, n/10)
		}
	}
}

func TestNormFloat64Moments(t *testing.T) {
	r := New(29)
	var sum, sumSq float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.NormFloat64()
		sum += v
		sumSq += v * v
	}
	mean := sum / n
	variance := sumSq/n - mean*mean
	if math.Abs(mean) > 0.01 {
		t.Fatalf("normal mean %v too far from 0", mean)
	}
	if math.Abs(variance-1) > 0.02 {
		t.Fatalf("normal variance %v too far from 1", variance)
	}
}

func TestExpFloat64Mean(t *testing.T) {
	r := New(31)
	var sum float64
	const n = 200000
	for i := 0; i < n; i++ {
		v := r.ExpFloat64()
		if v < 0 {
			t.Fatalf("ExpFloat64 returned negative %v", v)
		}
		sum += v
	}
	if mean := sum / n; math.Abs(mean-1) > 0.02 {
		t.Fatalf("exponential mean %v too far from 1", mean)
	}
}

func TestPermIsPermutation(t *testing.T) {
	r := New(37)
	for _, n := range []int{0, 1, 2, 10, 100} {
		p := r.Perm(n)
		if len(p) != n {
			t.Fatalf("Perm(%d) length %d", n, len(p))
		}
		seen := make([]bool, n)
		for _, v := range p {
			if v < 0 || v >= n || seen[v] {
				t.Fatalf("Perm(%d) = %v is not a permutation", n, p)
			}
			seen[v] = true
		}
	}
}

func TestChoiceRespectsWeights(t *testing.T) {
	r := New(41)
	counts := [3]int{}
	const n = 100000
	for i := 0; i < n; i++ {
		counts[r.Choice([]float64{1, 2, 7})]++
	}
	if f := float64(counts[2]) / n; math.Abs(f-0.7) > 0.01 {
		t.Fatalf("weight-7 arm frequency %v, want ~0.7", f)
	}
	if f := float64(counts[0]) / n; math.Abs(f-0.1) > 0.01 {
		t.Fatalf("weight-1 arm frequency %v, want ~0.1", f)
	}
}

func TestChoicePanics(t *testing.T) {
	for name, w := range map[string][]float64{
		"negative": {1, -1},
		"allzero":  {0, 0},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("Choice(%s) did not panic", name)
				}
			}()
			New(1).Choice(w)
		}()
	}
}

func TestBoolProbability(t *testing.T) {
	r := New(43)
	hits := 0
	const n = 100000
	for i := 0; i < n; i++ {
		if r.Bool(0.25) {
			hits++
		}
	}
	if f := float64(hits) / n; math.Abs(f-0.25) > 0.01 {
		t.Fatalf("Bool(0.25) frequency %v", f)
	}
}

func TestRangeBounds(t *testing.T) {
	r := New(47)
	for i := 0; i < 10000; i++ {
		v := r.Range(-3, 9)
		if v < -3 || v >= 9 {
			t.Fatalf("Range(-3,9) returned %v", v)
		}
	}
}

func TestZeroValueUsable(t *testing.T) {
	var r Stream
	// Must not panic and must produce values.
	_ = r.Uint64()
	_ = r.Float64()
}

func BenchmarkUint64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.Uint64()
	}
}

func BenchmarkNormFloat64(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		_ = r.NormFloat64()
	}
}

// boolLoop is the loop BoolMisses stands for: Bool(p) draws until n draws
// or limit misses, whichever comes first.
func boolLoop(r *Stream, p float64, n, limit int) (draws, misses int) {
	for draws < n && misses < limit {
		draws++
		if !r.Bool(p) {
			misses++
		}
	}
	return draws, misses
}

// TestBoolMissesMatchesBoolLoop: BoolMisses makes the draws of the Bool
// loop, counts the same misses and leaves the stream in the same state,
// including the zero value's lazy seeding and a cached normal deviate.
func TestBoolMissesMatchesBoolLoop(t *testing.T) {
	pick := New(99)
	ps := []float64{0, 1, math.NaN(), -0.5, 1.5, math.Inf(1), math.Inf(-1),
		0.5, 1.0 / 3, math.Nextafter(1, 0), math.Nextafter(0.5, 1), 5e-324, math.SmallestNonzeroFloat64 * (1 << 60)}
	for i := 0; i < 20; i++ {
		ps = append(ps, pick.Float64())
	}
	type shape struct{ n, limit int }
	shapes := []shape{{0, 0}, {0, 5}, {5, 0}, {-3, 4}, {4, -3}, {1, 1}, {10, 1}, {10, 10}, {200, 7}, {1000, 1000}}
	for i := 0; i < 30; i++ {
		shapes = append(shapes, shape{pick.Intn(300), 1 + pick.Intn(40)})
	}
	starts := []func() *Stream{
		func() *Stream { return &Stream{} },
		func() *Stream { return New(3) },
		func() *Stream {
			r := New(4)
			r.NormFloat64() // caches the spare deviate
			return r
		},
	}
	for si, start := range starts {
		for _, p := range ps {
			for _, sh := range shapes {
				got, want := start(), start()
				gd, gm := got.BoolMisses(p, sh.n, sh.limit)
				wd, wm := boolLoop(want, p, sh.n, sh.limit)
				if gd != wd || gm != wm {
					t.Fatalf("start %d p=%v n=%d limit=%d: BoolMisses = (%d, %d), loop = (%d, %d)",
						si, p, sh.n, sh.limit, gd, gm, wd, wm)
				}
				if *got != *want {
					t.Fatalf("start %d p=%v n=%d limit=%d: final state %+v, loop's %+v",
						si, p, sh.n, sh.limit, *got, *want)
				}
			}
		}
	}
}

// TestBoolMissesLimitOnLastDraw: a loop whose limit-th miss is its n-th
// draw stops there either way, and the stream's next draw agrees.
func TestBoolMissesLimitOnLastDraw(t *testing.T) {
	for seed := uint64(0); seed < 200; seed++ {
		probe := New(seed)
		const p = 0.6
		// Find where the 3rd miss falls, then ask for exactly that many
		// draws with limit 3.
		n, _ := boolLoop(probe, p, 1<<20, 3)
		got, want := New(seed), New(seed)
		gd, gm := got.BoolMisses(p, n, 3)
		wd, wm := boolLoop(want, p, n, 3)
		if gd != n || gm != 3 || gd != wd || gm != wm {
			t.Fatalf("seed %d: BoolMisses = (%d, %d), loop = (%d, %d), want (%d, 3)", seed, gd, gm, wd, wm, n)
		}
		if got.Uint64() != want.Uint64() {
			t.Fatalf("seed %d: next draw differs", seed)
		}
	}
}

func BenchmarkBoolMisses(b *testing.B) {
	r := New(1)
	for i := 0; i < b.N; i++ {
		r.BoolMisses(0.9, 64, 8)
	}
}
