package stats

import (
	"math"
	"math/rand"
	"sort"
	"testing"
	"testing/quick"

	"meshlab/internal/rng"
)

func almostEq(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSummarizeEmpty(t *testing.T) {
	if _, err := Summarize(nil); err != ErrEmpty {
		t.Fatalf("want ErrEmpty, got %v", err)
	}
}

func TestSummarizeBasic(t *testing.T) {
	s, err := Summarize([]float64{2, 4, 4, 4, 5, 5, 7, 9})
	if err != nil {
		t.Fatal(err)
	}
	if s.N != 8 || s.Mean != 5 || !almostEq(s.Std, 2, 1e-12) {
		t.Fatalf("unexpected summary %+v", s)
	}
	if s.Min != 2 || s.Max != 9 {
		t.Fatalf("min/max wrong: %+v", s)
	}
	if !almostEq(s.Median, 4.5, 1e-12) {
		t.Fatalf("median %v, want 4.5", s.Median)
	}
}

func TestMeanStdEmptyNaN(t *testing.T) {
	if !math.IsNaN(Mean(nil)) || !math.IsNaN(Std(nil)) {
		t.Fatal("Mean/Std of empty sample should be NaN")
	}
}

func TestQuantile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	cases := []struct{ q, want float64 }{
		{0, 1}, {0.25, 2}, {0.5, 3}, {0.75, 4}, {1, 5},
	}
	for _, c := range cases {
		if got := Quantile(xs, c.q); !almostEq(got, c.want, 1e-12) {
			t.Errorf("Quantile(%v) = %v, want %v", c.q, got, c.want)
		}
	}
	// Interpolation between order statistics.
	if got := Quantile([]float64{0, 10}, 0.3); !almostEq(got, 3, 1e-12) {
		t.Errorf("interpolated quantile = %v, want 3", got)
	}
}

func TestQuantileDoesNotMutate(t *testing.T) {
	xs := []float64{3, 1, 2}
	_ = Quantile(xs, 0.5)
	if xs[0] != 3 || xs[1] != 1 || xs[2] != 2 {
		t.Fatal("Quantile mutated its input")
	}
}

func TestQuantilePanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for q>1")
		}
	}()
	Quantile([]float64{1}, 1.5)
}

func TestQuantileSingleton(t *testing.T) {
	for _, q := range []float64{0, 0.5, 1} {
		if got := Quantile([]float64{7}, q); got != 7 {
			t.Fatalf("Quantile(singleton, %v) = %v", q, got)
		}
	}
}

func TestQuartiles(t *testing.T) {
	q1, med, q3 := Quartiles([]float64{1, 2, 3, 4, 5})
	if q1 != 2 || med != 3 || q3 != 4 {
		t.Fatalf("quartiles = %v,%v,%v", q1, med, q3)
	}
}

func TestCDFAt(t *testing.T) {
	c := NewCDF([]float64{1, 2, 2, 3})
	cases := []struct{ x, want float64 }{
		{0.5, 0}, {1, 0.25}, {2, 0.75}, {2.5, 0.75}, {3, 1}, {10, 1},
	}
	for _, cse := range cases {
		if got := c.At(cse.x); !almostEq(got, cse.want, 1e-12) {
			t.Errorf("At(%v) = %v, want %v", cse.x, got, cse.want)
		}
	}
}

func TestCDFMonotoneProperty(t *testing.T) {
	r := rng.New(1)
	xs := make([]float64, 500)
	for i := range xs {
		xs[i] = r.NormFloat64() * 10
	}
	c := NewCDF(xs)
	f := func(a, b float64) bool {
		a, b = math.Mod(a, 50), math.Mod(b, 50)
		if a > b {
			a, b = b, a
		}
		return c.At(a) <= c.At(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestCDFQuantileRoundTrip(t *testing.T) {
	r := rng.New(2)
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = r.Float64() * 100
	}
	c := NewCDF(xs)
	for _, q := range []float64{0.1, 0.25, 0.5, 0.9} {
		x := c.Quantile(q)
		if p := c.At(x); p < q-0.01 {
			t.Fatalf("At(Quantile(%v)) = %v < %v", q, p, q)
		}
	}
}

func TestCDFPoints(t *testing.T) {
	c := NewCDF([]float64{0, 1, 2, 3, 4})
	pts := c.Points(5)
	if len(pts) != 5 {
		t.Fatalf("got %d points", len(pts))
	}
	if pts[0].X != 0 || pts[4].X != 4 {
		t.Fatalf("endpoints wrong: %+v", pts)
	}
	if pts[4].Y != 1 {
		t.Fatalf("final CDF value %v != 1", pts[4].Y)
	}
	if NewCDF(nil).Points(10) != nil {
		t.Fatal("Points on empty CDF should be nil")
	}
}

func TestHistogram(t *testing.T) {
	h := NewHistogram([]int{1, 1, 2, 5, 5, 5})
	if h.Total != 6 {
		t.Fatalf("total %d", h.Total)
	}
	pts := h.Sorted()
	want := []Point{{1, 2}, {2, 1}, {5, 3}}
	if len(pts) != len(want) {
		t.Fatalf("got %v", pts)
	}
	for i := range want {
		if pts[i] != want[i] {
			t.Fatalf("got %v, want %v", pts, want)
		}
	}
}

func TestBinned(t *testing.T) {
	b := NewBinned(10)
	b.Add(3, 1)
	b.Add(7, 3)
	b.Add(15, 10)
	rows := b.Rows()
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	if rows[0].X != 5 || rows[0].N != 2 || rows[0].Mean != 2 {
		t.Fatalf("bin 0 wrong: %+v", rows[0])
	}
	if rows[1].X != 15 || rows[1].N != 1 || rows[1].Mean != 10 {
		t.Fatalf("bin 1 wrong: %+v", rows[1])
	}
}

func TestBinnedNegativeX(t *testing.T) {
	b := NewBinned(1)
	b.Add(-0.5, 1)
	b.Add(0.5, 2)
	rows := b.Rows()
	if len(rows) != 2 || rows[0].X != -0.5 {
		t.Fatalf("negative bin handling wrong: %+v", rows)
	}
}

func TestBinnedPanicsOnBadWidth(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic for width 0")
		}
	}()
	NewBinned(0)
}

func TestPearsonPerfect(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	ys := []float64{2, 4, 6, 8}
	if r := Pearson(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Fatalf("perfect correlation = %v", r)
	}
	neg := []float64{8, 6, 4, 2}
	if r := Pearson(xs, neg); !almostEq(r, -1, 1e-12) {
		t.Fatalf("perfect anticorrelation = %v", r)
	}
}

func TestPearsonDegenerate(t *testing.T) {
	if !math.IsNaN(Pearson([]float64{1, 2}, []float64{3})) {
		t.Fatal("length mismatch should be NaN")
	}
	if !math.IsNaN(Pearson([]float64{1, 1}, []float64{1, 2})) {
		t.Fatal("zero variance should be NaN")
	}
}

func TestSpearmanMonotone(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5}
	ys := []float64{1, 10, 100, 1000, 10000} // monotone but nonlinear
	if r := Spearman(xs, ys); !almostEq(r, 1, 1e-12) {
		t.Fatalf("Spearman of monotone data = %v, want 1", r)
	}
}

func TestSpearmanTies(t *testing.T) {
	// With ties, ranks are averaged; correlation of identical slices is 1.
	xs := []float64{1, 2, 2, 3}
	if r := Spearman(xs, xs); !almostEq(r, 1, 1e-12) {
		t.Fatalf("Spearman(x,x) = %v", r)
	}
}

func TestMostFrequent(t *testing.T) {
	v, c := MostFrequent([]float64{1, 2, 2, 3, 3})
	if v != 2 || c != 2 {
		t.Fatalf("tie should break toward smaller value, got (%v,%d)", v, c)
	}
	v, c = MostFrequent([]float64{5, 5, 1})
	if v != 5 || c != 2 {
		t.Fatalf("got (%v,%d)", v, c)
	}
	if v, c := MostFrequent(nil); v != 0 || c != 0 {
		t.Fatalf("empty should be (0,0), got (%v,%d)", v, c)
	}
}

func TestFractionAtMost(t *testing.T) {
	xs := []float64{1, 2, 3, 4}
	if f := FractionAtMost(xs, 2); f != 0.5 {
		t.Fatalf("got %v", f)
	}
	if !math.IsNaN(FractionAtMost(nil, 1)) {
		t.Fatal("empty should be NaN")
	}
}

func TestQuantilePropertyWithinBounds(t *testing.T) {
	r := rng.New(9)
	f := func(n uint8, q float64) bool {
		q = math.Abs(math.Mod(q, 1))
		m := int(n)%50 + 1
		xs := make([]float64, m)
		for i := range xs {
			xs[i] = r.Float64()
		}
		v := Quantile(xs, q)
		sorted := append([]float64(nil), xs...)
		sort.Float64s(sorted)
		return v >= sorted[0] && v <= sorted[len(sorted)-1]
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkNewCDF(b *testing.B) {
	r := rng.New(1)
	xs := make([]float64, 10000)
	for i := range xs {
		xs[i] = r.Float64()
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = NewCDF(xs)
	}
}

// TestSortedFastPathsAgree pins the sorted-input fast paths of Quantile,
// Quartiles, ranks, and NewCDF to the copy-and-sort path: shuffled and
// pre-sorted views of the same sample must agree exactly.
func TestSortedFastPathsAgree(t *testing.T) {
	r := rng.New(99)
	xs := make([]float64, 501)
	for i := range xs {
		xs[i] = math.Round(r.Float64()*50) / 5 // plenty of ties
	}
	sorted := append([]float64(nil), xs...)
	sort.Float64s(sorted)
	for _, q := range []float64{0, 0.25, 0.5, 0.9, 1} {
		if a, b := Quantile(xs, q), Quantile(sorted, q); a != b {
			t.Fatalf("Quantile(%v): shuffled %v vs sorted %v", q, a, b)
		}
	}
	a1, a2, a3 := Quartiles(xs)
	b1, b2, b3 := Quartiles(sorted)
	if a1 != b1 || a2 != b2 || a3 != b3 {
		t.Fatalf("Quartiles disagree: (%v,%v,%v) vs (%v,%v,%v)", a1, a2, a3, b1, b2, b3)
	}
	if got, want := NewCDF(sorted).At(2.0), NewCDF(xs).At(2.0); got != want {
		t.Fatalf("NewCDF fast path: %v vs %v", got, want)
	}
	// ranks: the sorted fast path must produce the same rank multiset, so
	// Spearman over a monotone transform stays exactly 1.
	ys := append([]float64(nil), sorted...)
	for i := range ys {
		ys[i] = ys[i] * 3
	}
	if got := Spearman(sorted, ys); math.Abs(got-1) > 1e-12 {
		t.Fatalf("Spearman on sorted input = %v, want 1", got)
	}
}

func TestQuartilesDoNotMutate(t *testing.T) {
	xs := []float64{5, 1, 4, 2, 3}
	Quartiles(xs)
	if xs[0] != 5 || xs[4] != 3 {
		t.Fatalf("Quartiles mutated its input: %v", xs)
	}
}

// sameOrder reports whether two sorted slices hold the same sequence,
// with NaN equal to NaN and −0 equal to +0.
func sameOrder(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] && !(math.IsNaN(a[i]) && math.IsNaN(b[i])) {
			return false
		}
	}
	return true
}

// TestSortFloat64sMatchesSortFloat64s referees the radix sort against
// sort.Float64s on inputs mixing NaNs (of both signs and several
// payloads), ±Inf, −0 and +0, subnormals, huge magnitudes and repeated
// values, at sizes on both sides of the radix threshold.
func TestSortFloat64sMatchesSortFloat64s(t *testing.T) {
	specials := []float64{
		math.NaN(), math.Float64frombits(0xFFF8000000000001), math.Float64frombits(0x7FF0000000000002),
		math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1),
		math.SmallestNonzeroFloat64, -math.SmallestNonzeroFloat64, math.Float64frombits(0x000FFFFFFFFFFFFF),
		math.MaxFloat64, -math.MaxFloat64, 1, -1, 2.5,
	}
	r := rand.New(rand.NewSource(3))
	for _, n := range []int{0, 1, 7, radixMin - 1, radixMin, radixMin + 1, 5000, 100000} {
		for _, mix := range []string{"specials", "normals", "subnormals", "ties"} {
			xs := make([]float64, n)
			for i := range xs {
				switch mix {
				case "specials":
					xs[i] = specials[r.Intn(len(specials))]
				case "normals":
					xs[i] = r.NormFloat64() * math.Pow(10, float64(r.Intn(40)-20))
				case "subnormals":
					xs[i] = math.Float64frombits(r.Uint64() & 0x800FFFFFFFFFFFFF)
				case "ties":
					xs[i] = float64(r.Intn(5)) * 0.25
				}
			}
			want := append([]float64(nil), xs...)
			sort.Float64s(want)
			SortFloat64s(xs)
			if !sameOrder(xs, want) {
				t.Fatalf("n=%d %s: radix order differs from sort.Float64s", n, mix)
			}
			for i := 1; i < len(xs) && n >= radixMin; i++ {
				if xs[i] == 0 && xs[i-1] == 0 && math.Signbit(xs[i]) && !math.Signbit(xs[i-1]) {
					t.Fatalf("n=%d %s: +0 before −0 at %d", n, mix, i)
				}
			}
		}
	}
}

// TestSortFloat64sKeepsNaNPayloads: NaNs move to the front with their
// bits intact.
func TestSortFloat64sKeepsNaNPayloads(t *testing.T) {
	payload := math.Float64frombits(0x7FF0000000000123)
	xs := make([]float64, 2*radixMin)
	for i := range xs {
		xs[i] = float64(len(xs) - i)
	}
	xs[100], xs[1500] = payload, payload
	SortFloat64s(xs)
	for i := 0; i < 2; i++ {
		if math.Float64bits(xs[i]) != 0x7FF0000000000123 {
			t.Fatalf("xs[%d] = %#x, want the NaN payload first", i, math.Float64bits(xs[i]))
		}
	}
	if !sort.Float64sAreSorted(xs) {
		t.Fatal("not sorted")
	}
}

func BenchmarkSortFloat64s(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	src := make([]float64, 1<<21)
	for i := range src {
		src[i] = math.Abs(r.NormFloat64() * 3)
	}
	xs := make([]float64, len(src))
	for _, sorter := range []struct {
		name string
		fn   func([]float64)
	}{{"radix", SortFloat64s}, {"sort.Float64s", sort.Float64s}} {
		b.Run(sorter.name, func(b *testing.B) {
			for b.Loop() {
				copy(xs, src)
				sorter.fn(xs)
			}
		})
	}
}

// TestQuantileSignedZeroAndNaN pins what a quantile returns over −0, +0
// and NaN inputs now that the copy-and-sort paths share SortFloat64s:
// NaNs sort first, a short slice keeps its zeros in input order, and a
// long one (the radix path) puts every −0 before every +0.
func TestQuantileSignedZeroAndNaN(t *testing.T) {
	negZero := math.Copysign(0, -1)
	signbit := func(x float64) bool { return math.Signbit(x) }

	short := []float64{1, 0, negZero}
	if q := Quantile(short, 0); q != 0 || signbit(q) {
		t.Fatalf("short: q0 = %v (signbit %v), want +0", q, signbit(q))
	}
	if lo, _, _ := Quartiles(short); lo != 0 || signbit(lo) {
		t.Fatalf("short: q1 = %v (signbit %v), want +0 (+0 and −0 interpolate to +0)", lo, signbit(lo))
	}

	long := []float64{1}
	for i := 0; i < 600; i++ {
		long = append(long, 0, negZero)
	}
	if q := Quantile(long, 0); q != 0 || !signbit(q) {
		t.Fatalf("long: q0 = %v (signbit %v), want −0", q, signbit(q))
	}
	if q := Quantile(long, 0.75); q != 0 || signbit(q) {
		t.Fatalf("long: q0.75 = %v (signbit %v), want +0", q, signbit(q))
	}
	if c := NewCDF(long); !signbit(c.Quantile(0)) || c.Quantile(1) != 1 {
		t.Fatalf("long CDF: ends %v, %v; want −0 and 1", c.Quantile(0), c.Quantile(1))
	}

	withNaN := []float64{2, math.NaN(), 1}
	if q := Quantile(withNaN, 0); !math.IsNaN(q) {
		t.Fatalf("NaN input: q0 = %v, want NaN", q)
	}
	if q := Quantile(withNaN, 0.5); q != 1 {
		t.Fatalf("NaN input: median = %v, want 1", q)
	}
	if q := Quantile(withNaN, 1); q != 2 {
		t.Fatalf("NaN input: q1 = %v, want 2", q)
	}
	if withNaN[0] != 2 || !math.IsNaN(withNaN[1]) {
		t.Fatal("Quantile reordered its input")
	}
}
