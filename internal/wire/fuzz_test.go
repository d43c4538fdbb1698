package wire

// Native fuzz targets for the decode surface. The contract under fuzzing
// is threefold: a corrupt or truncated input must yield a contextual
// error (prefixed "wire:", naming the structure being decoded) — never a
// panic — and must never trigger unbounded allocation: every variable-
// length structure is guarded by the reader's implausible-count limits
// and the flat-sample section's remaining-bytes check, so a handful of
// corrupt length bytes cannot demand gigabytes. Inputs past 1 MiB are
// skipped to keep iterations fast; the count guards are byte-pattern
// properties, not size properties.
//
// The seed corpus under testdata/fuzz covers both format versions, the
// flat-sample section, and truncated/corrupt variants; regenerate it with
//
//	go test ./internal/wire -run TestWriteFuzzCorpus -update-corpus

import (
	"bytes"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/snr"
)

// hugeSampleSection hand-assembles a minimal MLF2 file whose flat-sample
// section lies about its length (2^62 bytes) and declares an absurd
// sample count: the shape that would force a multi-GB up-front
// allocation if the decoder trusted either number.
func hugeSampleSection() []byte {
	var buf bytes.Buffer
	w := &writer{w: &buf}
	w.bytes(Magic2[:])
	encodeMeta(w, dataset.Meta{})
	w.u8(flagFlatSamples)
	w.u32(0)       // no networks
	w.u64(4)       // client section length
	w.u32(0)       // no client datasets
	w.u64(1 << 62) // absurd section length
	w.u8(1)        // one band
	w.u8(0)        // bg
	w.u8(uint8(len(phy.BandBG.Rates)))
	w.u32(1) // one group
	w.str("x")
	w.u32(1 << 27) // absurd sample count, "backed" by the lying secLen
	w.flush()
	return buf.Bytes()
}

// TestSampleSectionLyingLengthBoundsAllocation: a ~60-byte file whose
// section length and sample count are both hostile must produce a
// contextual error after at most one bounded chunk allocation, never an
// OOM-scale make.
func TestSampleSectionLyingLengthBoundsAllocation(t *testing.T) {
	_, err := ReadSamples(bytes.NewReader(hugeSampleSection()))
	if err == nil || !strings.Contains(err.Error(), "wire:") {
		t.Fatalf("want contextual error, got %v", err)
	}
}

// lyingGroupCount hand-assembles an MLF2 file whose flat-sample section
// is internally consistent byte-wise (honest secLen) but declares five
// sample groups while holding one: the walk must error contextually when
// the stream runs dry mid-group-header, never hang or panic.
func lyingGroupCount() []byte {
	var body bytes.Buffer
	bw := &writer{w: &body}
	bw.u8(1) // one band
	bw.u8(0) // bg
	nr := len(phy.BandBG.Rates)
	bw.u8(uint8(nr))
	bw.u32(5) // five groups declared, one encoded
	bw.str("liar")
	bw.u32(1) // one sample row
	bw.u16(0) // from
	bw.u16(1) // to
	bw.i32(300)
	bw.i16(20)
	bw.u8(2)     // popt
	bw.f64(11.5) // best
	for i := 0; i < nr; i++ {
		bw.f64(float64(i))
	}
	bw.flush()

	var buf bytes.Buffer
	w := &writer{w: &buf}
	w.bytes(Magic2[:])
	encodeMeta(w, dataset.Meta{})
	w.u8(flagFlatSamples)
	w.u32(0) // no networks
	w.u64(4) // client section length
	w.u32(0) // no client datasets
	w.u64(uint64(body.Len()))
	w.bytes(body.Bytes())
	w.flush()
	return buf.Bytes()
}

// truncatedMidGroup cuts a real sample-carrying encoding inside the first
// group's row bytes: the chunk boundary case FuzzSampleGroups starts from.
func truncatedMidGroup(tb testing.TB) []byte {
	f := fuzzFleet()
	var v2, v2s bytes.Buffer
	if err := Write(&v2, f); err != nil {
		tb.Fatal(err)
	}
	if _, err := WriteWithSamples(&v2s, f); err != nil {
		tb.Fatal(err)
	}
	// The section trails the fleet; land the cut a handful of rows into it.
	cut := v2.Len() + (v2s.Len()-v2.Len())/3
	return bytes.Clone(v2s.Bytes()[:cut])
}

// sampleSectionFirstRows locates where the first group's row bytes begin
// in a WriteWithSamples encoding of fuzzFleet. The flat-sample section
// trails the v2 fleet bytes and opens with a u64 section length and a u8
// band count; the first band contributes a code u8, a rate-count u8, and
// a u32 group count before the first group's header (name string + u32
// sample count) — the rows start right after that header.
func sampleSectionFirstRows(tb testing.TB) (data []byte, rowsStart int) {
	f := fuzzFleet()
	var v2, v2s bytes.Buffer
	if err := Write(&v2, f); err != nil {
		tb.Fatal(err)
	}
	if _, err := WriteWithSamples(&v2s, f); err != nil {
		tb.Fatal(err)
	}
	name := f.Networks[0].Info.Name // the bg band's first (only) group
	rowsStart = v2.Len() + 8 + 1 + (1 + 1 + 4) + (2 + len(name)) + 4
	return v2s.Bytes(), rowsStart
}

// truncatedAfterGroupHeader cuts the encoding immediately after a valid
// group header — name and sample count decoded, zero row bytes present —
// so the very first row read hits the truncation.
func truncatedAfterGroupHeader(tb testing.TB) []byte {
	data, rowsStart := sampleSectionFirstRows(tb)
	return bytes.Clone(data[:rowsStart])
}

// flippedGroupCount corrupts a byte inside the first group's u32
// sample-count length prefix: the inflated count disagrees with the
// section's honest byte budget, the shape the remaining-bytes check
// exists to reject before any row allocation.
func flippedGroupCount(tb testing.TB) []byte {
	data, rowsStart := sampleSectionFirstRows(tb)
	out := bytes.Clone(data)
	out[rowsStart-2] = 0xFF
	return out
}

// fuzzFleet hand-builds a tiny two-band fleet (not via synth, so the
// corpus stays stable across generator changes).
func fuzzFleet() *dataset.Fleet {
	ps := func(t int32, snr int16, rates ...uint8) dataset.ProbeSet {
		p := dataset.ProbeSet{T: t, SNR: snr, SNRStd: 1.5}
		for i, r := range rates {
			p.Obs = append(p.Obs, dataset.Obs{RateIdx: r, Loss: float32(i) * 0.25})
		}
		return p
	}
	return &dataset.Fleet{
		Meta: dataset.Meta{Seed: 7, ProbeDuration: 600, ProbeInterval: 300, ClientDuration: 900},
		Networks: []*dataset.NetworkData{
			{
				Info: dataset.NetworkInfo{
					Name: "alpha", Band: "bg", Env: "indoor", Spacing: 25,
					APs: []dataset.APInfo{
						{Name: "a0", X: 0, Y: 0},
						{Name: "a1", X: 30, Y: 0, Outdoor: true},
						{Name: "a2", X: 0, Y: 30},
					},
				},
				Links: []*dataset.Link{
					{From: 0, To: 1, Sets: []dataset.ProbeSet{ps(0, 20, 0, 1, 2), ps(300, 22, 0, 1)}},
					{From: 1, To: 0, Sets: []dataset.ProbeSet{ps(0, 19, 0, 2)}},
					{From: 1, To: 2, Sets: []dataset.ProbeSet{ps(0, 31, 0, 1, 2, 3)}},
				},
			},
			{
				Info: dataset.NetworkInfo{
					Name: "beta", Band: "n", Env: "outdoor", Spacing: 40,
					APs: []dataset.APInfo{
						{Name: "b0", X: 0, Y: 0, Outdoor: true},
						{Name: "b1", X: 50, Y: 10, Outdoor: true},
					},
				},
				Links: []*dataset.Link{
					{From: 0, To: 1, Sets: []dataset.ProbeSet{ps(0, 27, 0, 1, 2)}},
				},
			},
		},
		Clients: []*dataset.ClientData{
			{
				Network: "alpha", Env: "indoor", Duration: 900, NumAPs: 3,
				Clients: []dataset.ClientLog{
					{ID: 1, Assocs: []dataset.Assoc{{AP: 0, Start: 0, End: 400}, {AP: 2, Start: 450, End: 900}}},
					{ID: 2, Assocs: []dataset.Assoc{{AP: 1, Start: 10, End: 890}}},
				},
			},
		},
	}
}

// fuzzSeeds returns the shared corpus: valid encodings of every format
// flavor plus deterministic truncations and corruptions.
func fuzzSeeds(tb testing.TB) [][]byte {
	f := fuzzFleet()
	var v1, v2, v2s bytes.Buffer
	if err := WriteV1(&v1, f); err != nil {
		tb.Fatal(err)
	}
	if err := Write(&v2, f); err != nil {
		tb.Fatal(err)
	}
	if _, err := WriteWithSamples(&v2s, f); err != nil {
		tb.Fatal(err)
	}
	corrupt := func(src []byte, off int, b byte) []byte {
		out := bytes.Clone(src)
		if off < len(out) {
			out[off] = b
		}
		return out
	}
	seeds := [][]byte{
		v1.Bytes(),
		v2.Bytes(),
		v2s.Bytes(),
		{},                                      // empty
		[]byte("MLFX????"),                      // bad magic
		v1.Bytes()[:20],                         // header cut mid-meta
		v2.Bytes()[:v2.Len()/2],                 // record cut mid-network
		v2s.Bytes()[:v2s.Len()-37],              // cut inside the flat-sample section
		corrupt(v2.Bytes(), 24, 0xFF),           // unknown section flags
		corrupt(v1.Bytes(), 24, 0xFF),           // absurd network count (v1 count low byte)
		corrupt(v2.Bytes(), 29, 0x01),           // wrong record length prefix
		corrupt(v2s.Bytes(), 60, 0xAA),          // flipped byte mid-record
		corrupt(v2s.Bytes(), v2s.Len()-9, 0x7F), // flipped byte in the sample section
		hugeSampleSection(),                     // lying section length + absurd count
		lyingGroupCount(),                       // more groups declared than present
		truncatedMidGroup(tb),                   // cut inside a group's row bytes
		truncatedAfterGroupHeader(tb),           // cut right after a valid group header
		flippedGroupCount(tb),                   // flipped byte in a group's count prefix
		offGridSamples(tb),                      // throughputs off the 1/20 loss grid
	}
	return seeds
}

// offGridSamples is a valid file whose flat-sample throughputs mostly
// fall off the loss grid the §4 cores count densely: its losses are not
// multiples of 1/20, so those values must take the value-keyed path.
func offGridSamples(tb testing.TB) []byte {
	f := fuzzFleet()
	for _, nd := range f.Networks {
		for _, l := range nd.Links {
			for i := range l.Sets {
				for j := range l.Sets[i].Obs {
					if j%2 == 1 {
						l.Sets[i].Obs[j].Loss = 0.123 * float32(j)
					}
				}
			}
		}
	}
	var buf bytes.Buffer
	if _, err := WriteWithSamples(&buf, f); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// contextualError fails the fuzz run when a decode error lacks the
// package's context prefix: "never panic" is enforced by the runtime,
// "contextual" is enforced here.
func contextualError(t *testing.T, err error) {
	t.Helper()
	if err != nil && !strings.Contains(err.Error(), "wire:") {
		t.Fatalf("error without wire context: %v", err)
	}
}

// FuzzReader drives the streaming API: header walk with alternating
// Decode/Skip, then the client and sample sections. Every input must
// also decode exactly as the field-by-field oracle does, through every
// read view: the same networks bit for bit, or the same error at the
// same byte.
func FuzzReader(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		requireDecodeMatchesOracle(t, data)
		rd, err := NewReader(bytes.NewReader(data))
		if err != nil {
			contextualError(t, err)
			return
		}
		for i := 0; ; i++ {
			h, err := rd.NextHeader()
			if err != nil {
				contextualError(t, err)
				return
			}
			if h == nil {
				break
			}
			if i%2 == 0 {
				_, err = rd.Decode()
			} else {
				err = rd.Skip()
			}
			if err != nil {
				contextualError(t, err)
				return
			}
		}
		if _, err := rd.Clients(); err != nil {
			contextualError(t, err)
			return
		}
		if rd.HasFlatSamples() {
			_, err := rd.Samples()
			contextualError(t, err)
		}
	})
}

// FuzzReadFleet drives the whole-fleet decoders, and checks that decoding
// is a retraction of encoding: any fleet that decodes must re-encode, and
// the re-encoding must decode back to the same bytes.
func FuzzReadFleet(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		fl, err := Read(bytes.NewReader(data))
		if err != nil {
			contextualError(t, err)
		} else {
			var enc1 bytes.Buffer
			if err := Write(&enc1, fl); err != nil {
				t.Fatalf("a decoded fleet must re-encode: %v", err)
			}
			fl2, err := Read(bytes.NewReader(enc1.Bytes()))
			if err != nil {
				t.Fatalf("a re-encoded fleet must decode: %v", err)
			}
			var enc2 bytes.Buffer
			if err := Write(&enc2, fl2); err != nil {
				t.Fatalf("second re-encode failed: %v", err)
			}
			if !bytes.Equal(enc1.Bytes(), enc2.Bytes()) {
				t.Fatal("encode∘decode is not idempotent")
			}
		}
		// The sample stream must hold the same contract on the same input,
		// whether it reads the section or flattens the records.
		_, err = ReadSamples(bytes.NewReader(data))
		contextualError(t, err)
	})
}

// FuzzSampleGroups drives the chunked sample-section walk: the decode
// pool and in-order delivery must hold the same contract as the scalar
// readers — contextual errors, no panics, no hangs — across chunk
// boundaries, truncated groups, and lying counts. Delivered groups are
// additionally cross-checked against the serial walk, so corruption can
// never make the parallel path diverge from the single-threaded one.
func FuzzSampleGroups(f *testing.F) {
	for _, s := range fuzzSeeds(f) {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("oversized input")
		}
		walk := func(workers int) (int, error) {
			rd, err := NewReader(bytes.NewReader(data))
			if err != nil {
				contextualError(t, err)
				return 0, err
			}
			if !rd.HasFlatSamples() {
				return 0, nil
			}
			groups := 0
			bands := map[string][]snr.Sample{}
			err = rd.SampleGroups(workers, func(g *SampleGroup) error {
				for i := range g.Samples {
					if g.Samples[i].Net != g.Net {
						t.Fatalf("group %q delivered a sample for network %q", g.Net, g.Samples[i].Net)
					}
				}
				groups++
				bands[g.Band] = append(bands[g.Band], g.Samples...)
				return nil
			})
			contextualError(t, err)
			if err == nil {
				for band, samples := range bands {
					checkSec4Cores(t, band, samples)
				}
			}
			return groups, err
		}
		serialGroups, serialErr := walk(1)
		parallelGroups, parallelErr := walk(3)
		if (serialErr == nil) != (parallelErr == nil) {
			t.Fatalf("serial err %v vs parallel err %v", serialErr, parallelErr)
		}
		if serialErr == nil && serialGroups != parallelGroups {
			t.Fatalf("serial walk saw %d groups, parallel %d", serialGroups, parallelGroups)
		}
	})
}

var updateCorpus = flag.Bool("update-corpus", false, "rewrite the seed corpus under testdata/fuzz")

// TestWriteFuzzCorpus materializes fuzzSeeds as checked-in corpus files
// in Go's corpus encoding, so `go test -fuzz` starts from real format
// bytes even before any local fuzzing has run.
func TestWriteFuzzCorpus(t *testing.T) {
	if !*updateCorpus {
		t.Skip("pass -update-corpus to rewrite testdata/fuzz")
	}
	for _, target := range []string{"FuzzReader", "FuzzReadFleet", "FuzzSampleGroups"} {
		dir := filepath.Join("testdata", "fuzz", target)
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		for i, seed := range fuzzSeeds(t) {
			body := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			path := filepath.Join(dir, fmt.Sprintf("seed-%02d", i))
			if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestSeedCorpusInSync guards the checked-in corpus against silent drift:
// every seed the fuzz targets start from must exist on disk (the CI fuzz
// smoke runs from these files).
func TestSeedCorpusInSync(t *testing.T) {
	seeds := fuzzSeeds(t)
	for _, target := range []string{"FuzzReader", "FuzzReadFleet", "FuzzSampleGroups"} {
		for i, seed := range seeds {
			path := filepath.Join("testdata", "fuzz", target, fmt.Sprintf("seed-%02d", i))
			got, err := os.ReadFile(path)
			if err != nil {
				t.Fatalf("corpus file missing (regenerate with -update-corpus): %v", err)
			}
			want := fmt.Sprintf("go test fuzz v1\n[]byte(%q)\n", seed)
			if string(got) != want {
				t.Fatalf("%s out of sync with fuzzSeeds (regenerate with -update-corpus)", path)
			}
		}
	}
}

// checkSec4Cores referees the §4 cores' dense and value-keyed counters on
// decoded samples, against paths that use neither and do not depend on
// how the samples were grouped: the throughput quartiles against
// snr.ThroughputVsSNR's sorted cells, and the Global-scope penalties
// against a table trained on every sample and replayed through Lookup.
func checkSec4Cores(t *testing.T, bandName string, samples []snr.Sample) {
	band, err := phy.BandByName(bandName)
	if err != nil || len(samples) == 0 {
		return
	}
	nr := len(band.Rates)
	v := snr.NewGroupView(samples)
	tput := snr.NewTputAccum(nr, 1)
	tput.ObserveGroup(v)
	if got, want := tput.Finalize(), snr.ThroughputVsSNR(samples, nr, 1); !sameTputPoints(got, want) {
		t.Fatalf("%s: TputAccum %v, ThroughputVsSNR %v", bandName, got, want)
	}
	pen := snr.NewPenaltyAccum(nr, []snr.Scope{snr.Global})
	pen.ObserveGroup(v)
	got := pen.Finalize()[0]
	table := snr.Train(samples, nr, snr.Global)
	var want []float64
	exact := 0
	for i := range samples {
		s := &samples[i]
		p, _ := table.Lookup(s)
		if p == s.Popt {
			exact++
		}
		diff := s.BestTput - s.Tput[p]
		if diff < 0 {
			diff = 0
		}
		want = append(want, diff)
	}
	sort.Float64s(want)
	if !sameFloats(got.Diffs, want) || got.ExactFrac != float64(exact)/float64(len(samples)) {
		t.Fatalf("%s: Global penalties %v (exact %v), table replay %v (exact %d/%d)", bandName, got.Diffs, got.ExactFrac, want, exact, len(samples))
	}
}

// sameFloats compares sorted float sequences, NaN equal to NaN.
func sameFloats(a, b []float64) bool {
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

func sameTputPoints(a, b []snr.TputPoint) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		x, y := a[i], b[i]
		if x.RateIdx != y.RateIdx || x.SNR != y.SNR || x.N != y.N ||
			!sameFloats([]float64{x.Median, x.Q1, x.Q3}, []float64{y.Median, y.Q1, y.Q3}) {
			return false
		}
	}
	return true
}
