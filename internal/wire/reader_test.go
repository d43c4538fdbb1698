package wire

import (
	"bytes"
	"reflect"
	"runtime"
	"strings"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/snr"
	"meshlab/internal/synth"
)

// encodeVariants returns the same fleet in every on-disk form the reader
// must handle: current, current with samples, and legacy v1.
func encodeVariants(t testing.TB, f *dataset.Fleet) (v2, v2s, v1 []byte) {
	t.Helper()
	var b2, b2s, b1 bytes.Buffer
	if err := Write(&b2, f); err != nil {
		t.Fatal(err)
	}
	if _, err := WriteWithSamples(&b2s, f); err != nil {
		t.Fatal(err)
	}
	if err := WriteV1(&b1, f); err != nil {
		t.Fatal(err)
	}
	return b2.Bytes(), b2s.Bytes(), b1.Bytes()
}

// fleetsEqual compares the parts of a fleet the codec round-trips.
func fleetsEqual(t *testing.T, want, got *dataset.Fleet) {
	t.Helper()
	if !reflect.DeepEqual(want.Meta, got.Meta) {
		t.Fatalf("meta mismatch: %+v vs %+v", want.Meta, got.Meta)
	}
	if len(got.Networks) != len(want.Networks) || len(got.Clients) != len(want.Clients) {
		t.Fatalf("collection counts changed: %d/%d networks, %d/%d clients",
			len(got.Networks), len(want.Networks), len(got.Clients), len(want.Clients))
	}
	for i := range want.Networks {
		if !reflect.DeepEqual(want.Networks[i].Info, got.Networks[i].Info) {
			t.Fatalf("network %d info mismatch", i)
		}
		if !reflect.DeepEqual(want.Networks[i].Links, got.Networks[i].Links) {
			t.Fatalf("network %d links mismatch", i)
		}
	}
	for i := range want.Clients {
		if !reflect.DeepEqual(want.Clients[i], got.Clients[i]) {
			t.Fatalf("client dataset %d mismatch", i)
		}
	}
}

// TestReadAllVersions pins that Read decodes every format variant to the
// same fleet, sample section present or not.
func TestReadAllVersions(t *testing.T) {
	f := quickFleet(t)
	v2, v2s, v1 := encodeVariants(t, f)
	for name, data := range map[string][]byte{"v2": v2, "v2+samples": v2s, "v1": v1} {
		got, err := Read(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		fleetsEqual(t, f, got)
	}
}

// TestReaderStreamsInFleetOrder walks the file header-by-header, decoding
// every network, and checks the stream agrees with the in-memory fleet.
func TestReaderStreamsInFleetOrder(t *testing.T) {
	f := quickFleet(t)
	_, v2s, _ := encodeVariants(t, f)
	r, err := NewReader(bytes.NewReader(v2s))
	if err != nil {
		t.Fatal(err)
	}
	if r.Version() != 2 || !r.HasFlatSamples() {
		t.Fatalf("version %d, samples %v; want v2 with samples", r.Version(), r.HasFlatSamples())
	}
	if r.NumNetworks() != len(f.Networks) {
		t.Fatalf("header declares %d networks, fleet has %d", r.NumNetworks(), len(f.Networks))
	}
	if r.Meta() != f.Meta {
		t.Fatalf("meta mismatch: %+v vs %+v", r.Meta(), f.Meta)
	}
	for i := 0; ; i++ {
		h, err := r.NextHeader()
		if err != nil {
			t.Fatal(err)
		}
		if h == nil {
			if i != len(f.Networks) {
				t.Fatalf("stream ended after %d networks, want %d", i, len(f.Networks))
			}
			break
		}
		want := f.Networks[i]
		if h.Index != i || h.Name != want.Info.Name || h.Band != want.Info.Band ||
			h.Env != want.Info.Env || h.Spacing != want.Info.Spacing || h.NumAPs != want.NumAPs() {
			t.Fatalf("header %d = %+v does not match %+v", i, h, want.Info)
		}
		nd, err := r.Decode()
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(nd.Info, want.Info) || !reflect.DeepEqual(nd.Links, want.Links) {
			t.Fatalf("network %d decoded differently", i)
		}
	}
	cds, err := r.Clients()
	if err != nil {
		t.Fatal(err)
	}
	if len(cds) != len(f.Clients) {
		t.Fatalf("%d client datasets, want %d", len(cds), len(f.Clients))
	}
}

// TestReaderBandFilterSkips pins band filtering: only matching networks
// are decoded, and the skipped ones cost no allocations of their own.
func TestReaderBandFilterSkips(t *testing.T) {
	f := quickFleet(t)
	v2, _, v1 := encodeVariants(t, f)
	for name, data := range map[string][]byte{"v2": v2, "v1": v1} {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		var got []*dataset.NetworkData
		if err := r.EachNetwork(Filter{Band: "bg"}, func(nd *dataset.NetworkData) error {
			got = append(got, nd)
			return nil
		}); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		want := f.ByBand("bg")
		if len(got) != len(want) {
			t.Fatalf("%s: filtered %d networks, want %d", name, len(got), len(want))
		}
		for i := range want {
			if !reflect.DeepEqual(got[i].Info, want[i].Info) {
				t.Fatalf("%s: filtered network %d mismatch", name, i)
			}
		}
		// The client section must still decode after skipping.
		if cds, err := r.Clients(); err != nil || len(cds) != len(f.Clients) {
			t.Fatalf("%s: clients after skip: %d datasets, err %v", name, len(cds), err)
		}
	}
}

// TestReaderSizeFilter exercises the MinAPs/MaxAPs bounds.
func TestReaderSizeFilter(t *testing.T) {
	f := quickFleet(t)
	_, v2s, _ := encodeVariants(t, f)
	r, err := NewReader(bytes.NewReader(v2s))
	if err != nil {
		t.Fatal(err)
	}
	filter := Filter{MinAPs: 5, MaxAPs: 15}
	n := 0
	if err := r.EachNetwork(filter, func(nd *dataset.NetworkData) error {
		if aps := nd.NumAPs(); aps < 5 || aps > 15 {
			t.Fatalf("filter passed a %d-AP network", aps)
		}
		n++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	want := 0
	for _, nd := range f.Networks {
		if aps := nd.NumAPs(); aps >= 5 && aps <= 15 {
			want++
		}
	}
	if n != want {
		t.Fatalf("filter passed %d networks, want %d", n, want)
	}
}

// TestSamplesMatchFlatten is the §4 oracle: the samples coming off the
// wire — both the stored flat-sample section and the streaming-Flattener
// fallback, on both format versions — must equal snr.Flatten over the
// in-memory fleet exactly, per band.
func TestSamplesMatchFlatten(t *testing.T) {
	f := quickFleet(t)
	v2, v2s, v1 := encodeVariants(t, f)
	want := map[string][]snr.Sample{}
	for _, band := range []string{"bg", "n"} {
		s, err := snr.Flatten(f.ByBand(band))
		if err != nil {
			t.Fatal(err)
		}
		if len(s) > 0 {
			want[band] = s
		}
	}
	for name, data := range map[string][]byte{"v2 fallback": v2, "v2 section": v2s, "v1 fallback": v1} {
		got, err := ReadSamples(bytes.NewReader(data))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(got) != len(want) {
			t.Fatalf("%s: bands %v, want %v", name, keys(got), keys(want))
		}
		for band := range want {
			if !reflect.DeepEqual(got[band], want[band]) {
				t.Fatalf("%s: band %s samples differ from snr.Flatten", name, band)
			}
		}
	}
}

// TestWriteWithSamplesReturnsFlattenOutput: the samples WriteWithSamples
// hands back (so cache writers need not flatten twice) must be the same
// values the section round-trips.
func TestWriteWithSamplesReturnsFlattenOutput(t *testing.T) {
	f := quickFleet(t)
	var buf bytes.Buffer
	returned, err := WriteWithSamples(&buf, f)
	if err != nil {
		t.Fatal(err)
	}
	read, err := ReadSamples(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(returned, read) {
		t.Fatal("WriteWithSamples return value diverges from the section it wrote")
	}
}

// TestCorruptRateIndexRejected: observation rate indices index the band's
// rate table downstream, so both the encoder and the decoder must bound
// them — a corrupt byte yields an error, never a panic.
func TestCorruptRateIndexRejected(t *testing.T) {
	bad := &dataset.Fleet{Networks: []*dataset.NetworkData{{
		Info: dataset.NetworkInfo{Name: "x", Band: "bg", Env: "indoor"},
		Links: []*dataset.Link{{From: 0, To: 1, Sets: []dataset.ProbeSet{
			{T: 0, SNR: 20, Obs: []dataset.Obs{{RateIdx: 250}}},
		}}},
	}}}
	if err := Write(&bytes.Buffer{}, bad); err == nil || !strings.Contains(err.Error(), "rate index") {
		t.Fatalf("encode should reject rate index 250, got %v", err)
	}

	// Decode side: encode a legal single-obs fleet, then corrupt the rate
	// byte in place. With no clients the file tail is the 12-byte client
	// section (u64 length + u32 zero count), preceded by the observation's
	// 4-byte loss and 1-byte rate index.
	bad.Networks[0].Links[0].Sets[0].Obs[0].RateIdx = 0
	var buf bytes.Buffer
	if err := Write(&buf, bad); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	data[len(data)-12-4-1] = 250
	if _, err := Read(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "rate index") {
		t.Fatalf("decode should reject rate index 250, got %v", err)
	}
	// The §4 streaming path must error, not panic in snr.Flatten.
	if _, err := ReadSamples(bytes.NewReader(data)); err == nil {
		t.Fatal("ReadSamples over a corrupt rate index should error")
	}
}

// TestCorruptSampleCountRejected: a corrupt sample count must be rejected
// against the section's remaining bytes before anything is allocated.
func TestCorruptSampleCountRejected(t *testing.T) {
	f := quickFleet(t)
	v2, v2s, _ := encodeVariants(t, f)
	data := bytes.Clone(v2s)
	// The section starts where the fleet portion ends (= len(v2)): u64
	// length, bandCount u8, then band u8 + numRates u8 + groupCount u32,
	// then the first group's name str followed by its sample count.
	name := f.ByBand("bg")[0].Info.Name
	off := len(v2) + 8 + 1 + (1 + 1 + 4) + (2 + len(name))
	data[off] = 0xFF
	data[off+1] = 0xFF
	data[off+2] = 0xFF
	data[off+3] = 0x0F // 2^28-ish: passes the count limit, not the byte budget
	_, err := ReadSamples(bytes.NewReader(data))
	if err == nil || !strings.Contains(err.Error(), "section bytes remain") {
		t.Fatalf("corrupt sample count should be rejected against the section budget, got %v", err)
	}
}

func keys(m map[string][]snr.Sample) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	return out
}

// TestFlattenerMatchesFlatten pins the incremental flattener against the
// whole-band Flatten it refactors.
func TestFlattenerMatchesFlatten(t *testing.T) {
	f := quickFleet(t)
	for _, bandName := range []string{"bg", "n"} {
		nets := f.ByBand(bandName)
		if len(nets) == 0 {
			continue
		}
		band, err := nets[0].Band()
		if err != nil {
			t.Fatal(err)
		}
		fl := snr.NewFlattener(band)
		for _, nd := range nets {
			if err := fl.Add(nd); err != nil {
				t.Fatal(err)
			}
		}
		want, err := snr.Flatten(nets)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(fl.Samples(), want) {
			t.Fatalf("band %s: Flattener diverges from Flatten", bandName)
		}
	}
	// Cross-band networks must be rejected, not silently mixed.
	bg := f.ByBand("bg")
	n := f.ByBand("n")
	if len(bg) > 0 && len(n) > 0 {
		band, _ := bg[0].Band()
		fl := snr.NewFlattener(band)
		if err := fl.Add(n[0]); err == nil {
			t.Fatal("adding an n network to a bg flattener should error")
		}
	}
}

// TestReaderTruncatedEverywhere cuts the stream at every boundary class —
// header, mid-network, client section, sample section — and demands a
// contextual error, never a panic or silent success. Every cut of the
// trimmed quick fleet must also decode exactly as the field-by-field
// oracle does, through every read view.
func TestReaderTruncatedEverywhere(t *testing.T) {
	f := quickFleet(t)
	v2, v2s, v1 := encodeVariants(t, f)
	// Read never touches the trailing flat-sample section, so cuts inside
	// it only have to fail ReadSamples; fleetEnd is where that section
	// starts (the fleet portion of v2s is byte-identical to v2 except the
	// flag byte).
	for name, tc := range map[string]struct {
		full     []byte
		fleetEnd int
	}{
		"v2+samples": {v2s, len(v2)},
		"v1":         {v1, len(v1)},
	} {
		cuts := []int{0, 2, 5, 20, 24, 25, 30, len(tc.full) / 4, len(tc.full) / 2, 3 * len(tc.full) / 4, len(tc.full) - 1}
		for _, cut := range cuts {
			if cut >= len(tc.full) {
				continue
			}
			data := tc.full[:cut]
			if _, err := Read(bytes.NewReader(data)); err == nil && cut < tc.fleetEnd {
				t.Fatalf("%s: Read of %d/%d bytes should error", name, cut, len(tc.full))
			}
			if _, err := ReadSamples(bytes.NewReader(data)); err == nil {
				t.Fatalf("%s: ReadSamples of %d/%d bytes should error", name, cut, len(tc.full))
			}
		}
	}
	v2, _, v1 = encodeVariants(t, trimmedQuickFleet(t))
	for _, full := range [][]byte{v2, v1} {
		for k := 0; k <= 24; k++ {
			requireDecodeMatchesOracle(t, full[:k*(len(full)-1)/24])
		}
	}
}

// TestReaderMidNetworkEOFNamesNetwork pins the error context: truncation
// inside a network body must name the network it happened in.
func TestReaderMidNetworkEOFNamesNetwork(t *testing.T) {
	f := quickFleet(t)
	v2, _, _ := encodeVariants(t, f)
	// Cut mid-file: past the header and first record, inside some network.
	data := v2[:len(v2)/2]
	_, err := Read(bytes.NewReader(data))
	if err == nil {
		t.Fatal("mid-network truncation should error")
	}
	if !strings.Contains(err.Error(), "network") {
		t.Fatalf("error %q should name the network section", err)
	}
	if !strings.Contains(err.Error(), "unexpected EOF") {
		t.Fatalf("error %q should surface the unexpected EOF", err)
	}
}

// TestReaderCorruptRecordLength pins the v2 framing check: a record whose
// body disagrees with its length prefix must be rejected by name.
func TestReaderCorruptRecordLength(t *testing.T) {
	f := quickFleet(t)
	v2, _, _ := encodeVariants(t, f)
	data := bytes.Clone(v2)
	// The first record length sits after magic(4)+meta(20)+flags(1)+count(4).
	off := 4 + 20 + 1 + 4
	data[off]++ // stretch the declared length by one byte
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextHeader(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decode(); err == nil || !strings.Contains(err.Error(), "length") {
		t.Fatalf("corrupt record length should be rejected with context, got %v", err)
	}
}

// TestReaderUnknownFlagsRejected: reserved flag bits signal a format this
// reader does not know; it must refuse rather than misparse.
func TestReaderUnknownFlagsRejected(t *testing.T) {
	f := quickFleet(t)
	v2, _, _ := encodeVariants(t, f)
	data := bytes.Clone(v2)
	data[4+20] |= 0x80
	if _, err := NewReader(bytes.NewReader(data)); err == nil || !strings.Contains(err.Error(), "flags") {
		t.Fatalf("unknown section flags should be rejected, got %v", err)
	}
}

// TestReaderMisuseErrors covers out-of-order API calls.
func TestReaderMisuseErrors(t *testing.T) {
	f := quickFleet(t)
	_, v2s, _ := encodeVariants(t, f)
	r, err := NewReader(bytes.NewReader(v2s))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Decode(); err == nil {
		t.Fatal("Decode before NextHeader should error")
	}
	if err := r.Skip(); err == nil {
		t.Fatal("Skip before NextHeader should error")
	}
	if _, err := r.Clients(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.NextHeader(); err == nil {
		t.Fatal("NextHeader after Clients should error")
	}
	// Samples still works: the section sits after the client section.
	if _, err := r.Samples(); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Samples(); err == nil {
		t.Fatal("second Samples should error")
	}
}

// TestReadSamplesRequiresUnconsumedStream: without a stored section the
// fallback needs the network section; consuming it first must error.
func TestReadSamplesRequiresUnconsumedStream(t *testing.T) {
	f := quickFleet(t)
	v2, _, _ := encodeVariants(t, f)
	r, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	if h, err := r.NextHeader(); err != nil || h == nil {
		t.Fatal(err)
	}
	if _, err := r.Samples(); err == nil {
		t.Fatal("fallback Samples after consuming a network should error")
	}
}

// liveHeap forces a collection and returns the live heap size.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// rssFixture encodes a throwaway fleet (not the shared test fleet, which
// would sit live in every measurement) so the RSS benchmarks' baseline is
// just the encoded bytes.
func rssFixture(b *testing.B) []byte {
	b.Helper()
	f, err := synth.Generate(synth.Quick(44))
	if err != nil {
		b.Fatal(err)
	}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		b.Fatal(err)
	}
	return buf.Bytes()
}

// BenchmarkSamplesPeakRSSLoaded measures the §4 path the old way:
// materialize the whole fleet, then flatten, so fleet and samples are
// live together. The peak-live-MB metric is the contrast with
// BenchmarkSamplesPeakRSSStreamed, whose peak is bounded by the samples
// plus one network instead of the fleet.
func BenchmarkSamplesPeakRSSLoaded(b *testing.B) {
	data := rssFixture(b)
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		fl, err := Read(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		samples := map[string][]snr.Sample{}
		for _, band := range []string{"bg", "n"} {
			if samples[band], err = snr.Flatten(fl.ByBand(band)); err != nil {
				b.Fatal(err)
			}
		}
		if h := liveHeap(); h > peak { // fleet + samples both live here
			peak = h
		}
		runtime.KeepAlive(fl)
		runtime.KeepAlive(samples)
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
}

// BenchmarkSamplesPeakRSSStreamed measures the streaming §4 path: one
// network at a time through snr.Flattener, raw probe data dropped as it
// is consumed.
func BenchmarkSamplesPeakRSSStreamed(b *testing.B) {
	data := rssFixture(b)
	var peak uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r, err := NewReader(bytes.NewReader(data))
		if err != nil {
			b.Fatal(err)
		}
		flatteners := map[string]*snr.Flattener{}
		err = r.EachNetwork(Filter{}, func(nd *dataset.NetworkData) error {
			fl := flatteners[nd.Info.Band]
			if fl == nil {
				band, err := nd.Band()
				if err != nil {
					return err
				}
				fl = snr.NewFlattener(band)
				flatteners[nd.Info.Band] = fl
			}
			err := fl.Add(nd)
			// Sample with this network and the samples live; nd is
			// dropped as soon as this callback returns.
			if h := liveHeap(); h > peak {
				peak = h
			}
			runtime.KeepAlive(nd)
			return err
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(peak)/(1<<20), "peak-live-MB")
}

// BenchmarkWarmStartSection measures the O(read) warm start: samples
// straight from the flat-sample section.
func BenchmarkWarmStartSection(b *testing.B) {
	f := quickFleet(b)
	var buf bytes.Buffer
	if _, err := WriteWithSamples(&buf, f); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSamples(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarmStartDecodeFlatten is the baseline the section replaces:
// decode every network and re-flatten on each start.
func BenchmarkWarmStartDecodeFlatten(b *testing.B) {
	f := quickFleet(b)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ReadSamples(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
