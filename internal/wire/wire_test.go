package wire

import (
	"bytes"
	"reflect"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"meshlab/internal/dataset"
	"meshlab/internal/leakcheck"
	"meshlab/internal/phy"
	"meshlab/internal/rng"
	"meshlab/internal/synth"
)

func TestMain(m *testing.M) { leakcheck.Main(m) }

var fleetOnce sync.Once
var testFleet *dataset.Fleet

func quickFleet(t testing.TB) *dataset.Fleet {
	fleetOnce.Do(func() {
		f, err := synth.Generate(synth.Quick(33))
		if err != nil {
			panic(err)
		}
		testFleet = f
	})
	if testFleet == nil {
		t.Fatal("no fleet")
	}
	return testFleet
}

func TestRoundTripExact(t *testing.T) {
	f := quickFleet(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(f.Meta, got.Meta) {
		t.Fatalf("meta mismatch: %+v vs %+v", f.Meta, got.Meta)
	}
	if len(got.Networks) != len(f.Networks) || len(got.Clients) != len(f.Clients) {
		t.Fatal("collection counts changed")
	}
	for i := range f.Networks {
		if !reflect.DeepEqual(f.Networks[i].Info, got.Networks[i].Info) {
			t.Fatalf("network %d info mismatch", i)
		}
		if len(f.Networks[i].Links) != len(got.Networks[i].Links) {
			t.Fatalf("network %d link count mismatch", i)
		}
		for j := range f.Networks[i].Links {
			a, b := f.Networks[i].Links[j], got.Networks[i].Links[j]
			if a.From != b.From || a.To != b.To || !reflect.DeepEqual(a.Sets, b.Sets) {
				t.Fatalf("network %d link %d mismatch", i, j)
			}
		}
	}
	for i := range f.Clients {
		if !reflect.DeepEqual(f.Clients[i], got.Clients[i]) {
			t.Fatalf("client dataset %d mismatch", i)
		}
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinarySmallerThanJSON(t *testing.T) {
	f := quickFleet(t)
	var bin, jsonl bytes.Buffer
	if err := Write(&bin, f); err != nil {
		t.Fatal(err)
	}
	if err := dataset.Write(&jsonl, f); err != nil {
		t.Fatal(err)
	}
	if bin.Len()*2 > jsonl.Len() {
		t.Fatalf("binary (%d bytes) should be under half of JSONL (%d bytes)", bin.Len(), jsonl.Len())
	}
}

func TestBadMagic(t *testing.T) {
	if _, err := Read(strings.NewReader("NOPE-this-is-not-a-fleet")); err == nil {
		t.Fatal("bad magic should error")
	}
	if _, err := Read(strings.NewReader("ML")); err == nil {
		t.Fatal("truncated magic should error")
	}
}

func TestTruncatedStream(t *testing.T) {
	f := quickFleet(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	for _, cut := range []int{5, 20, len(full) / 2, len(full) - 3} {
		if _, err := Read(bytes.NewReader(full[:cut])); err == nil {
			t.Fatalf("truncation at %d bytes should error", cut)
		}
	}
}

func TestCorruptCountRejected(t *testing.T) {
	f := quickFleet(t)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	// The network count lives right after magic (4) + meta (8+4+4+4) +
	// the v2 section-flag byte.
	off := 4 + 8 + 4 + 4 + 4 + 1
	for i := 0; i < 4; i++ {
		b[off+i] = 0xFF
	}
	if _, err := Read(bytes.NewReader(b)); err == nil {
		t.Fatal("absurd network count should be rejected, not allocated")
	}
}

func TestUnknownBandRejectedOnWrite(t *testing.T) {
	f := &dataset.Fleet{Networks: []*dataset.NetworkData{{
		Info: dataset.NetworkInfo{Name: "x", Band: "ac", Env: "indoor"},
	}}}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("unknown band should fail to encode")
	}
	f.Networks[0].Info.Band = "bg"
	f.Networks[0].Info.Env = "underwater"
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("unknown environment should fail to encode")
	}
}

// TestOversizedProbeSetRejected pins the encode-time guard: a probe set
// with more observations than the format's u8 count field must fail with
// a descriptive error, never truncate silently.
func TestOversizedProbeSetRejected(t *testing.T) {
	obs := make([]dataset.Obs, 256)
	for i := range obs {
		// Indices must stay legal for the bg band (7 rates): this test is
		// about the count limit, not the rate-index bound.
		obs[i] = dataset.Obs{RateIdx: uint8(i % 7)}
	}
	f := &dataset.Fleet{Networks: []*dataset.NetworkData{{
		Info: dataset.NetworkInfo{Name: "big", Band: "bg", Env: "indoor"},
		Links: []*dataset.Link{{
			From: 0, To: 1,
			Sets: []dataset.ProbeSet{{T: 0, SNR: 20, Obs: obs}},
		}},
	}}}
	err := Write(&bytes.Buffer{}, f)
	if err == nil {
		t.Fatal("256 observations should fail to encode")
	}
	for _, want := range []string{"big", "0→1", "256"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q should name %q", err, want)
		}
	}
	// Exactly 255 observations is legal and must round-trip.
	f.Networks[0].Links[0].Sets[0].Obs = obs[:255]
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatalf("255 observations should encode: %v", err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n := len(got.Networks[0].Links[0].Sets[0].Obs); n != 255 {
		t.Fatalf("round-tripped %d observations, want 255", n)
	}
}

// TestOutOfRangeFieldsRejected covers the other silent-truncation hazards
// of the fixed-width format: link endpoints and association AP indices
// beyond u16.
func TestOutOfRangeFieldsRejected(t *testing.T) {
	f := &dataset.Fleet{Networks: []*dataset.NetworkData{{
		Info:  dataset.NetworkInfo{Name: "x", Band: "bg", Env: "indoor"},
		Links: []*dataset.Link{{From: 70000, To: 1}},
	}}}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("link endpoint beyond u16 should fail to encode")
	}
	f = &dataset.Fleet{Clients: []*dataset.ClientData{{
		Network: "x", Env: "indoor", NumAPs: 5,
		Clients: []dataset.ClientLog{{ID: 1, Assocs: []dataset.Assoc{{AP: 1 << 17}}}},
	}}}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("association AP beyond u16 should fail to encode")
	}
}

func TestEmptyFleet(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, &dataset.Fleet{}); err != nil {
		t.Fatal(err)
	}
	got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Networks) != 0 || len(got.Clients) != 0 {
		t.Fatal("empty fleet should round-trip empty")
	}
}

func BenchmarkWriteBinary(b *testing.B) {
	f := quickFleet(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkReadBinary(b *testing.B) {
	f := quickFleet(b)
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}

// TestRoundTripPropertyRandomFleets fuzzes the codec with randomly shaped
// fleets (values drawn from the schema's legal ranges) and asserts exact
// round trips.
func TestRoundTripPropertyRandomFleets(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		fl := &dataset.Fleet{Meta: dataset.Meta{
			Seed:          r.Uint64(),
			ProbeDuration: int32(r.Intn(100000)),
			ProbeInterval: int32(r.Intn(3600) + 1),
		}}
		bands := []string{"bg", "n"}
		envs := []string{"indoor", "outdoor", "mixed"}
		for n := 0; n < r.Intn(3); n++ {
			nd := &dataset.NetworkData{Info: dataset.NetworkInfo{
				Name:    "net" + string(rune('a'+n)),
				Band:    bands[r.Intn(2)],
				Env:     envs[r.Intn(3)],
				Spacing: r.Range(10, 100),
			}}
			nAPs := 2 + r.Intn(5)
			for a := 0; a < nAPs; a++ {
				nd.Info.APs = append(nd.Info.APs, dataset.APInfo{
					Name: "ap", X: r.Range(-500, 500), Y: r.Range(-500, 500), Outdoor: r.Bool(0.5),
				})
			}
			band, err := phy.BandByName(nd.Info.Band)
			if err != nil {
				t.Fatal(err)
			}
			for l := 0; l < r.Intn(4); l++ {
				link := &dataset.Link{From: r.Intn(nAPs), To: r.Intn(nAPs)}
				for s := 0; s < r.Intn(5); s++ {
					ps := dataset.ProbeSet{
						T: int32(s * 300), SNR: int16(r.Intn(90) - 10), SNRStd: float32(r.Range(0, 10)),
					}
					for o := 0; o < r.Intn(4); o++ {
						ps.Obs = append(ps.Obs, dataset.Obs{
							// Rate indices must be legal for the band: the
							// codec bounds them on encode and decode.
							RateIdx: uint8(r.Intn(len(band.Rates))), Loss: float32(r.Float64()),
						})
					}
					link.Sets = append(link.Sets, ps)
				}
				nd.Links = append(nd.Links, link)
			}
			fl.Networks = append(fl.Networks, nd)
		}
		for c := 0; c < r.Intn(2); c++ {
			cd := &dataset.ClientData{
				Network: "net", Env: envs[r.Intn(3)], Duration: 39600, NumAPs: 5,
			}
			for k := 0; k < r.Intn(4); k++ {
				cl := dataset.ClientLog{ID: k}
				start := int32(0)
				for a := 0; a < r.Intn(4); a++ {
					end := start + int32(r.Intn(1000)+1)
					cl.Assocs = append(cl.Assocs, dataset.Assoc{
						AP: int32(r.Intn(5)), Start: start, End: end,
					})
					start = end + int32(r.Intn(500))
				}
				cd.Clients = append(cd.Clients, cl)
			}
			fl.Clients = append(fl.Clients, cd)
		}

		var buf bytes.Buffer
		if err := Write(&buf, fl); err != nil {
			t.Logf("seed %d: write: %v", seed, err)
			return false
		}
		got, err := Read(&buf)
		if err != nil {
			t.Logf("seed %d: read: %v", seed, err)
			return false
		}
		if !reflect.DeepEqual(fl.Meta, got.Meta) ||
			len(got.Networks) != len(fl.Networks) ||
			len(got.Clients) != len(fl.Clients) {
			return false
		}
		for i := range fl.Networks {
			if !reflect.DeepEqual(fl.Networks[i].Info, got.Networks[i].Info) {
				return false
			}
			for j := range fl.Networks[i].Links {
				if !reflect.DeepEqual(fl.Networks[i].Links[j], got.Networks[i].Links[j]) {
					return false
				}
			}
		}
		for i := range fl.Clients {
			if !reflect.DeepEqual(fl.Clients[i], got.Clients[i]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestOutOfRangeClientIDRejected(t *testing.T) {
	f := &dataset.Fleet{Clients: []*dataset.ClientData{{
		Network: "x", Env: "indoor", NumAPs: 5,
		Clients: []dataset.ClientLog{{ID: -1}},
	}}}
	if err := Write(&bytes.Buffer{}, f); err == nil {
		t.Fatal("negative client ID should fail to encode")
	}
}
