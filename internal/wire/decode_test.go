package wire

// Tests for the network decode: an independent field-by-field oracle
// referees Reader.Decode on every input the tests and the fuzz targets
// produce, and the interning contract (shared, read-only, bit-exact
// observation rows) is pinned directly.

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"strings"
	"testing"
	"testing/iotest"

	"meshlab/internal/dataset"
	"meshlab/internal/phy"
)

// decodeOracle is the field-by-field network decode: one primitive read
// per field and a freshly appended Obs slice per probe set. It is the
// reference Reader.Decode must agree with, networks and errors alike.
func decodeOracle(r *Reader) (*dataset.NetworkData, error) {
	if r.sect != sectInNetwork {
		return nil, fmt.Errorf("wire: Decode without a pending network header")
	}
	band, err := phy.BandByName(r.hdr.Band)
	if err != nil {
		return nil, r.netErr(err)
	}
	nRates := uint8(len(band.Rates))
	rd := &r.rd
	start := rd.n
	nd := &dataset.NetworkData{Info: dataset.NetworkInfo{
		Name: r.hdr.Name, Band: r.hdr.Band, Env: r.hdr.Env, Spacing: r.hdr.Spacing,
	}}
	if r.hdr.NumAPs > 0 {
		nd.Info.APs = make([]dataset.APInfo, 0, r.hdr.NumAPs)
	}
	for a := 0; a < r.hdr.NumAPs && rd.err == nil; a++ {
		nd.Info.APs = append(nd.Info.APs, dataset.APInfo{
			Name: rd.str(), X: rd.f64(), Y: rd.f64(), Outdoor: rd.u8() == 1,
		})
	}
	nLinks := rd.count("link", 1<<26)
	for l := 0; l < nLinks && rd.err == nil; l++ {
		link := &dataset.Link{From: int(rd.u16()), To: int(rd.u16())}
		nSets := rd.count("probe set", 1<<26)
		if rd.err == nil && nSets > 0 {
			link.Sets = make([]dataset.ProbeSet, 0, min(nSets, 1<<16))
		}
		for s := 0; s < nSets && rd.err == nil; s++ {
			ps := dataset.ProbeSet{T: rd.i32(), SNR: rd.i16(), SNRStd: rd.f32()}
			nObs := int(rd.u8())
			for o := 0; o < nObs && rd.err == nil; o++ {
				ri := rd.u8()
				if ri >= nRates && rd.err == nil {
					rd.err = corruptf("link %d→%d: observation rate index %d out of range for band %s (%d rates)",
						link.From, link.To, ri, r.hdr.Band, nRates)
				}
				ps.Obs = append(ps.Obs, dataset.Obs{RateIdx: ri, Loss: rd.f32()})
			}
			link.Sets = append(link.Sets, ps)
		}
		nd.Links = append(nd.Links, link)
	}
	if rd.err != nil {
		return nil, r.netErr(rd.err)
	}
	if r.version >= 2 {
		if got := rd.n - start; got != r.rem {
			rd.err = corruptf("record body was %d bytes, length prefix promised %d", got, r.rem)
			return nil, r.netErr(rd.err)
		}
	}
	r.sect = sectNetworks
	return nd, nil
}

// deepEqualBits is reflect.DeepEqual with floats compared by bit pattern:
// NaN payloads and signed zeros must match exactly, and nil and empty
// slices still differ.
func deepEqualBits(a, b reflect.Value) bool {
	if a.Type() != b.Type() {
		return false
	}
	switch a.Kind() {
	case reflect.Pointer:
		if a.IsNil() || b.IsNil() {
			return a.IsNil() == b.IsNil()
		}
		return deepEqualBits(a.Elem(), b.Elem())
	case reflect.Slice:
		if a.IsNil() != b.IsNil() || a.Len() != b.Len() {
			return false
		}
		for i := 0; i < a.Len(); i++ {
			if !deepEqualBits(a.Index(i), b.Index(i)) {
				return false
			}
		}
		return true
	case reflect.Struct:
		for i := 0; i < a.NumField(); i++ {
			if !deepEqualBits(a.Field(i), b.Field(i)) {
				return false
			}
		}
		return true
	case reflect.Float32:
		return math.Float32bits(a.Interface().(float32)) == math.Float32bits(b.Interface().(float32))
	case reflect.Float64:
		return math.Float64bits(a.Float()) == math.Float64bits(b.Float())
	case reflect.String, reflect.Bool,
		reflect.Int, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64,
		reflect.Uint, reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64:
		return a.Equal(b)
	}
	panic("deepEqualBits: unsupported kind " + a.Kind().String())
}

// walkResult is what a network walk observed: every network decoded
// before the first error, the error, and where the reader stopped.
type walkResult struct {
	nets []*dataset.NetworkData
	err  error
	off  int64
}

// walkNetworks decodes every network of data with decode, reading
// through wrap's view of the bytes.
func walkNetworks(data []byte, wrap func(io.Reader) io.Reader, decode func(*Reader) (*dataset.NetworkData, error)) walkResult {
	rd, err := NewReader(wrap(bytes.NewReader(data)))
	if err != nil {
		return walkResult{err: err}
	}
	var res walkResult
	for {
		h, err := rd.NextHeader()
		if err == nil && h == nil {
			break
		}
		var nd *dataset.NetworkData
		if err == nil {
			nd, err = decode(rd)
		}
		if err != nil {
			res.err = err
			break
		}
		res.nets = append(res.nets, nd)
	}
	res.off = rd.Offset()
	return res
}

// faultAfter delivers the first n bytes of src, then fails every read
// with errFault: an I/O fault, not a truncation.
type faultAfter struct {
	src io.Reader
	n   int
}

var errFault = errors.New("injected read fault")

func (f *faultAfter) Read(p []byte) (int, error) {
	if f.n <= 0 {
		return 0, errFault
	}
	if len(p) > f.n {
		p = p[:f.n]
	}
	k, err := f.src.Read(p)
	f.n -= k
	return k, err
}

// readViews are the ways a decode sees its bytes: the package's own 1 MiB
// buffer, the smallest bufio.Reader (smaller than most probe sets), one
// byte per read, and half of every request.
var readViews = []struct {
	name string
	wrap func(io.Reader) io.Reader
}{
	{"buffered", func(r io.Reader) io.Reader { return r }},
	{"bufio16", func(r io.Reader) io.Reader { return bufio.NewReaderSize(r, 16) }},
	{"onebyte", iotest.OneByteReader},
	{"half", iotest.HalfReader},
}

// requireDecodeMatchesOracle walks data with Reader.Decode and with
// decodeOracle through every read view and demands the same networks, bit
// for bit, or the same error: message, *Error offset and corruption
// class.
func requireDecodeMatchesOracle(t *testing.T, data []byte) {
	t.Helper()
	for _, v := range readViews {
		want := walkNetworks(data, v.wrap, decodeOracle)
		got := walkNetworks(data, v.wrap, (*Reader).Decode)
		compareWalks(t, v.name, want, got)
	}
}

func compareWalks(t *testing.T, view string, want, got walkResult) {
	t.Helper()
	if (want.err == nil) != (got.err == nil) {
		t.Fatalf("%s: oracle err %v, Decode err %v", view, want.err, got.err)
	}
	if want.err != nil {
		if want.err.Error() != got.err.Error() {
			t.Fatalf("%s: oracle err %q, Decode err %q", view, want.err, got.err)
		}
		var we, ge *Error
		if errors.As(want.err, &we) != errors.As(got.err, &ge) || (we != nil && we.Offset != ge.Offset) {
			t.Fatalf("%s: oracle *Error %+v, Decode *Error %+v", view, we, ge)
		}
		if IsCorrupt(want.err) != IsCorrupt(got.err) {
			t.Fatalf("%s: oracle corrupt=%v, Decode corrupt=%v", view, IsCorrupt(want.err), IsCorrupt(got.err))
		}
	}
	if want.off != got.off {
		t.Fatalf("%s: oracle stopped at byte %d, Decode at %d", view, want.off, got.off)
	}
	if !deepEqualBits(reflect.ValueOf(want.nets), reflect.ValueOf(got.nets)) {
		t.Fatalf("%s: Decode's %d networks differ from the oracle's %d", view, len(got.nets), len(want.nets))
	}
}

// trimmedQuickFleet keeps every quick-fleet network with its first few
// links: real rows in both bands, at a size the byte-at-a-time read views
// walk quickly, even under the race detector.
func trimmedQuickFleet(t testing.TB) *dataset.Fleet {
	f := quickFleet(t)
	out := &dataset.Fleet{Meta: f.Meta, Clients: f.Clients}
	for _, nd := range f.Networks {
		c := *nd
		c.Links = c.Links[:min(3, len(c.Links))]
		out.Networks = append(out.Networks, &c)
	}
	return out
}

// TestDecodeMatchesOracle: the quick fleet in both versions decodes to
// the oracle's networks, and the trimmed quick fleet does so through
// every read view, including a fault injected at a spread of offsets,
// which must surface as the same error at the same byte.
func TestDecodeMatchesOracle(t *testing.T) {
	v2, _, v1 := encodeVariants(t, quickFleet(t))
	for _, data := range [][]byte{v2, v1} {
		compareWalks(t, "buffered", walkNetworks(data, readViews[0].wrap, decodeOracle), walkNetworks(data, readViews[0].wrap, (*Reader).Decode))
	}
	v2, _, v1 = encodeVariants(t, trimmedQuickFleet(t))
	for _, data := range [][]byte{v2, v1} {
		requireDecodeMatchesOracle(t, data)
		end := int(walkNetworks(data, readViews[0].wrap, decodeOracle).off) // network section end
		for k := 0; k < 32; k++ {
			cut := k*end/32 + 7 // off any structure boundary, inside the network section
			wrap := func(r io.Reader) io.Reader { return &faultAfter{src: r, n: cut} }
			want := walkNetworks(data, wrap, decodeOracle)
			got := walkNetworks(data, wrap, (*Reader).Decode)
			compareWalks(t, fmt.Sprintf("fault at %d", cut), want, got)
			if want.err == nil || IsCorrupt(want.err) || !errors.Is(got.err, errFault) {
				t.Fatalf("fault at %d: want a non-corrupt injected fault, got %v", cut, got.err)
			}
		}
	}
}

// rowFleet is one bg network whose rows exercise the interning contract:
// repeats within and across links, a one-bit loss difference, signed
// zeros and NaN payloads.
func rowFleet() *dataset.Fleet {
	f32 := math.Float32frombits
	base := []dataset.Obs{{RateIdx: 0, Loss: 0.25}, {RateIdx: 3, Loss: 0.5}}
	oneBit := []dataset.Obs{{RateIdx: 0, Loss: f32(math.Float32bits(0.25) ^ 1)}, {RateIdx: 3, Loss: 0.5}}
	set := func(t int32, obs []dataset.Obs) dataset.ProbeSet {
		return dataset.ProbeSet{T: t, SNR: 20, SNRStd: 1, Obs: append([]dataset.Obs(nil), obs...)}
	}
	return &dataset.Fleet{Networks: []*dataset.NetworkData{{
		Info: dataset.NetworkInfo{Name: "rows", Band: "bg", Env: "indoor",
			APs: []dataset.APInfo{{Name: "a"}, {Name: "b"}}},
		Links: []*dataset.Link{
			{From: 0, To: 1, Sets: []dataset.ProbeSet{
				// 0, and 1 with the same bytes.
				set(0, base),
				set(300, base),
				// 2: one loss bit off.
				set(600, oneBit),
				// 3 and 4: +0 and −0.
				set(900, []dataset.Obs{{Loss: 0}}),
				set(1200, []dataset.Obs{{Loss: f32(1 << 31)}}),
				// 5: a quiet and a signaling NaN payload.
				set(1500, []dataset.Obs{{Loss: f32(0x7fc00123)}, {RateIdx: 1, Loss: f32(0x7f800001)}}),
				// 6: no observations.
				set(1800, nil),
			}},
			// The same bytes as set 0, on another link.
			{From: 1, To: 0, Sets: []dataset.ProbeSet{set(0, base)}},
		},
	}}}
}

// TestDecodeSharesRows pins the interning contract on the decoded rows.
func TestDecodeSharesRows(t *testing.T) {
	f := rowFleet()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	requireDecodeMatchesOracle(t, buf.Bytes())
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	sets := got.Networks[0].Links[0].Sets
	other := got.Networks[0].Links[1].Sets[0]
	same := func(a, b []dataset.Obs) bool { return len(a) > 0 && len(b) > 0 && &a[0] == &b[0] }

	if !same(sets[0].Obs, sets[1].Obs) || !same(sets[0].Obs, other.Obs) {
		t.Fatal("sets with equal observation bytes must share one row, within and across links")
	}
	if cap(sets[0].Obs) != len(sets[0].Obs) {
		t.Fatalf("shared row has cap %d > len %d: an append would write into a neighbor", cap(sets[0].Obs), len(sets[0].Obs))
	}
	grown := append(sets[0].Obs, dataset.Obs{RateIdx: 5, Loss: 1})
	grown[0].Loss = 0.75
	if len(sets[1].Obs) != 2 || sets[1].Obs[0].Loss != 0.25 || sets[0].Obs[0].Loss != 0.25 {
		t.Fatalf("append to one set's row changed the shared row: %+v", sets[1].Obs)
	}
	if same(sets[0].Obs, sets[2].Obs) {
		t.Fatal("rows differing in one loss bit must not share")
	}
	if same(sets[3].Obs, sets[4].Obs) {
		t.Fatal("+0 and −0 rows must not share")
	}
	for i, ps := range f.Networks[0].Links[0].Sets {
		for o, want := range ps.Obs {
			if gb, wb := math.Float32bits(sets[i].Obs[o].Loss), math.Float32bits(want.Loss); gb != wb {
				t.Fatalf("set %d obs %d: loss bits %#x, encoded %#x", i, o, gb, wb)
			}
		}
	}
	if sets[6].Obs != nil {
		t.Fatal("a set without observations must decode to a nil row")
	}
}

// TestDecodeBadRateFirstSighting: a row with an out-of-range rate index
// never enters the table, so it fails on its first sighting, with the
// field-by-field message and offset, whichever read path sees it.
func TestDecodeBadRateFirstSighting(t *testing.T) {
	f := rowFleet()
	marker := float32(0.123456)
	ls := f.Networks[0].Links[0].Sets
	ls[5].Obs = []dataset.Obs{{RateIdx: 0, Loss: 0.25}, {RateIdx: 2, Loss: marker}}
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	data := bytes.Clone(buf.Bytes())
	mb := binary.LittleEndian.AppendUint32(nil, math.Float32bits(marker))
	at := bytes.Index(data, mb) - 1 // the marker's rate index byte
	if at < 0 {
		t.Fatal("marker not found in the encoding")
	}
	data[at] = 200
	requireDecodeMatchesOracle(t, data)
	_, err := Read(bytes.NewReader(data))
	var we *Error
	if !errors.As(err, &we) || !IsCorrupt(err) {
		t.Fatalf("want a corrupt *Error, got %v", err)
	}
	if we.Offset != int64(at+1) {
		t.Fatalf("error at byte %d, want %d (just past the rate index)", we.Offset, at+1)
	}
	msg := fmt.Sprintf("link 0→1: observation rate index 200 out of range for band bg (%d rates)", len(phy.BandBG.Rates))
	if !strings.Contains(err.Error(), msg) {
		t.Fatalf("error %q lacks %q", err, msg)
	}
}

// repeatedRowsNetwork encodes one bg network of nAPs APs with every
// ordered AP pair as a link, setsPerLink probe sets per link, and rows
// drawn from nRows distinct observation rows: the shape of real probe
// data, whose quantized losses repeat across sets.
func repeatedRowsNetwork(tb testing.TB, nAPs, setsPerLink, nRows int) []byte {
	tb.Helper()
	nr := len(phy.BandBG.Rates)
	rows := make([][]dataset.Obs, nRows)
	for i := range rows {
		for r := 0; r < nr; r++ {
			rows[i] = append(rows[i], dataset.Obs{RateIdx: uint8(r), Loss: float32((i*7+r)%21) / 20})
		}
	}
	nd := &dataset.NetworkData{Info: dataset.NetworkInfo{Name: "rep", Band: "bg", Env: "indoor"}}
	for a := 0; a < nAPs; a++ {
		nd.Info.APs = append(nd.Info.APs, dataset.APInfo{Name: fmt.Sprintf("ap%d", a), X: float64(a)})
	}
	for from := 0; from < nAPs; from++ {
		for to := 0; to < nAPs; to++ {
			if from == to {
				continue
			}
			l := &dataset.Link{From: from, To: to}
			for s := 0; s < setsPerLink; s++ {
				l.Sets = append(l.Sets, dataset.ProbeSet{
					T: int32(s * 300), SNR: int16(10 + s%30), SNRStd: float32(s%9) / 4,
					Obs: rows[(from*31+to*17+s)%nRows],
				})
			}
			nd.Links = append(nd.Links, l)
		}
	}
	var buf bytes.Buffer
	if err := Write(&buf, &dataset.Fleet{Networks: []*dataset.NetworkData{nd}}); err != nil {
		tb.Fatal(err)
	}
	return buf.Bytes()
}

// decodeFirst decodes data's first network through br, reset onto src.
func decodeFirst(tb testing.TB, br *bufio.Reader, src *bytes.Reader, data []byte) *dataset.NetworkData {
	src.Reset(data)
	br.Reset(src)
	rd, err := NewReader(br)
	if err == nil {
		_, err = rd.NextHeader()
	}
	var nd *dataset.NetworkData
	if err == nil {
		nd, err = rd.Decode()
	}
	if err != nil {
		tb.Fatal(err)
	}
	return nd
}

// TestDecodeAllocsBounded: a network decode allocates per link and per
// distinct row, never per probe set. The fixed part covers the reader,
// the header, the AP names, the network, its link and row blocks, and
// the growth of the link list and the intern table.
func TestDecodeAllocsBounded(t *testing.T) {
	const nAPs, setsPerLink, nRows = 12, 40, 24
	data := repeatedRowsNetwork(t, nAPs, setsPerLink, nRows)
	links := nAPs * (nAPs - 1)
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 1<<20)
	allocs := testing.AllocsPerRun(10, func() { decodeFirst(t, br, src, data) })
	bound := float64(links + nRows + nAPs + 24)
	t.Logf("%.0f allocs for %d links, %d distinct rows, %d probe sets (bound %.0f)", allocs, links, nRows, links*setsPerLink, bound)
	if allocs > bound {
		t.Fatalf("decode made %.0f allocations, want at most %.0f (%d links + %d rows + %d APs + 24)", allocs, bound, links, nRows, nAPs)
	}
}

// BenchmarkDecodeNetwork decodes one many-link network whose probe sets
// repeat a few hundred distinct observation rows.
func BenchmarkDecodeNetwork(b *testing.B) {
	data := repeatedRowsNetwork(b, 40, 60, 400)
	src := bytes.NewReader(data)
	br := bufio.NewReaderSize(src, 1<<20)
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decodeFirst(b, br, src, data)
	}
}
