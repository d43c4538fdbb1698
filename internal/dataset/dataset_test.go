package dataset

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"
)

func sampleFleet() *Fleet {
	return &Fleet{
		Meta: Meta{Seed: 42, ProbeDuration: 86400, ProbeInterval: 300, ClientDuration: 39600},
		Networks: []*NetworkData{
			{
				Info: NetworkInfo{
					Name: "net000", Band: "bg", Env: "indoor", Spacing: 30,
					APs: []APInfo{{Name: "a", X: 0, Y: 0}, {Name: "b", X: 30, Y: 0}, {Name: "c", X: 0, Y: 30}},
				},
				Links: []*Link{
					{From: 0, To: 1, Sets: []ProbeSet{
						{T: 300, SNR: 25, SNRStd: 1.5, Obs: []Obs{{RateIdx: 0, Loss: 0}, {RateIdx: 4, Loss: 0.25}}},
						{T: 600, SNR: 26, SNRStd: 1.2, Obs: []Obs{{RateIdx: 0, Loss: 0.05}}},
					}},
					{From: 1, To: 0, Sets: []ProbeSet{
						{T: 300, SNR: 24, SNRStd: 2.0, Obs: []Obs{{RateIdx: 0, Loss: 0.1}}},
					}},
				},
			},
			{
				Info: NetworkInfo{
					Name: "net001", Band: "n", Env: "outdoor", Spacing: 90,
					APs: []APInfo{{Name: "x", Outdoor: true}, {Name: "y", X: 90, Outdoor: true}},
				},
				Links: []*Link{
					{From: 0, To: 1, Sets: []ProbeSet{
						{T: 300, SNR: 18, SNRStd: 0.9, Obs: []Obs{{RateIdx: 15, Loss: 0.8}}},
					}},
				},
			},
		},
		Clients: []*ClientData{
			{
				Network: "net000", Env: "indoor", Duration: 39600, NumAPs: 3,
				Clients: []ClientLog{
					{ID: 0, Assocs: []Assoc{{AP: 0, Start: 0, End: 39600}}},
					{ID: 1, Assocs: []Assoc{{AP: 1, Start: 100, End: 500}, {AP: 2, Start: 500, End: 900}}},
				},
			},
		},
	}
}

func TestRoundTrip(t *testing.T) {
	f := sampleFleet()
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
	if len(got.Networks) != 2 || len(got.Clients) != 1 {
		t.Fatalf("counts: %d networks, %d clients", len(got.Networks), len(got.Clients))
	}
	if !reflect.DeepEqual(f.Networks[0].Info, got.Networks[0].Info) {
		t.Fatal("network info mismatch")
	}
	if !reflect.DeepEqual(f.Networks[0].Links[0].Sets, got.Networks[0].Links[0].Sets) {
		t.Fatal("probe sets mismatch")
	}
	if !reflect.DeepEqual(f.Clients[0].Clients, got.Clients[0].Clients) {
		t.Fatal("clients mismatch")
	}
}

func TestReadErrors(t *testing.T) {
	cases := map[string]string{
		"empty":        "",
		"no meta":      `{"kind":"network","info":{"name":"n","band":"bg"}}`,
		"bad json":     "{nope",
		"unknown kind": `{"kind":"wat"}`,
		"orphan link":  `{"kind":"meta","meta":{}}` + "\n" + `{"kind":"link","net":"x","band":"bg","link":{"f":0,"to":1}}`,
		"meta nil":     `{"kind":"meta"}`,
		"network nil":  `{"kind":"meta","meta":{}}` + "\n" + `{"kind":"network"}`,
		"link nil":     `{"kind":"meta","meta":{}}` + "\n" + `{"kind":"network","info":{"name":"x","band":"bg"}}` + "\n" + `{"kind":"link","net":"x","band":"bg"}`,
		"clients nil":  `{"kind":"meta","meta":{}}` + "\n" + `{"kind":"clients"}`,
	}
	for name, in := range cases {
		if _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: expected error", name)
		}
	}
}

// TestDecoderRoundTrip: a Decoder reads back what an Encoder wrote, one
// network at a time, and agrees with Read, which loops over it.
func TestDecoderRoundTrip(t *testing.T) {
	f := sampleFleet()
	var buf bytes.Buffer
	if err := Write(&buf, f); err != nil {
		t.Fatal(err)
	}
	read, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	d, err := NewDecoder(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	got := &Fleet{Meta: d.Meta()}
	for {
		n, err := d.Network()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatal(err)
		}
		got.Networks = append(got.Networks, n)
	}
	if got.Clients, err = d.Clients(); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, f) {
		t.Fatal("decoded fleet differs from the encoded one")
	}
	if !reflect.DeepEqual(read, got) {
		t.Fatal("Read differs from the decoder loop")
	}
}

// TestDecoderErrorsNameTheLine: each way a file breaks the record order
// or drops a payload is an ErrMalformed error naming the line.
func TestDecoderErrorsNameTheLine(t *testing.T) {
	const (
		meta  = `{"kind":"meta","meta":{}}`
		netX  = `{"kind":"network","info":{"name":"x","band":"bg"}}`
		netY  = `{"kind":"network","info":{"name":"y","band":"bg"}}`
		linkX = `{"kind":"link","net":"x","band":"bg","link":{"f":0,"to":1}}`
	)
	cases := []struct {
		name, in, want string
	}{
		{"meta not first", netX + "\n" + meta, "line 1: network record before the meta record"},
		{"link outside its network", meta + "\n" + netX + "\n" + netY + "\n" + linkX, "line 4: link for network x/bg inside network y/bg"},
		{"orphan link", meta + "\n\n" + linkX, "line 3: link for unknown network x/bg"},
		{"link nil", meta + "\n" + netX + "\n" + `{"kind":"link","net":"x","band":"bg"}`, "line 3: link record without its payload"},
		{"network after clients", meta + "\n" + `{"kind":"clients","clients":{}}` + "\n" + netX, "line 3: network record after the client records"},
	}
	for _, c := range cases {
		_, err := Read(strings.NewReader(c.in))
		if !errors.Is(err, ErrMalformed) || !strings.Contains(fmt.Sprint(err), c.want) {
			t.Errorf("%s: got %v, want ErrMalformed with %q", c.name, err, c.want)
		}
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	in := `{"kind":"meta","meta":{"seed":1}}` + "\n\n"
	f, err := Read(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta.Seed != 1 {
		t.Fatal("meta not parsed")
	}
}

func TestValidateOK(t *testing.T) {
	if err := sampleFleet().Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestValidateCatches(t *testing.T) {
	mutations := []struct {
		name string
		mut  func(*Fleet)
	}{
		{"bad band", func(f *Fleet) { f.Networks[0].Info.Band = "ac" }},
		{"self link", func(f *Fleet) { f.Networks[0].Links[0].To = 0 }},
		{"ap out of range", func(f *Fleet) { f.Networks[0].Links[0].To = 99 }},
		{"unordered sets", func(f *Fleet) { f.Networks[0].Links[0].Sets[1].T = 300 }},
		{"rate out of range", func(f *Fleet) { f.Networks[0].Links[0].Sets[0].Obs[0].RateIdx = 200 }},
		{"loss out of range", func(f *Fleet) { f.Networks[0].Links[0].Sets[0].Obs[0].Loss = 1.5 }},
		{"overlapping assoc", func(f *Fleet) { f.Clients[0].Clients[1].Assocs[1].Start = 400 }},
		{"empty assoc", func(f *Fleet) { f.Clients[0].Clients[0].Assocs[0].End = 0 }},
		{"assoc past end", func(f *Fleet) { f.Clients[0].Clients[0].Assocs[0].End = 99999 }},
		{"assoc bad AP", func(f *Fleet) { f.Clients[0].Clients[0].Assocs[0].AP = 7 }},
	}
	for _, m := range mutations {
		f := sampleFleet()
		m.mut(f)
		if err := f.Validate(); err == nil {
			t.Errorf("%s: Validate did not catch the corruption", m.name)
		}
	}
}

func TestByBand(t *testing.T) {
	f := sampleFleet()
	if got := f.ByBand("bg"); len(got) != 1 || got[0].Info.Name != "net000" {
		t.Fatalf("ByBand(bg) = %v", got)
	}
	if got := f.ByBand("n"); len(got) != 1 {
		t.Fatalf("ByBand(n) returned %d", len(got))
	}
	if got := f.ByBand("ac"); got != nil {
		t.Fatalf("ByBand(ac) should be nil")
	}
}

func TestNumProbeSets(t *testing.T) {
	if got := sampleFleet().NumProbeSets(); got != 4 {
		t.Fatalf("NumProbeSets = %d, want 4", got)
	}
}

func TestAssocDuration(t *testing.T) {
	a := Assoc{AP: 0, Start: 100, End: 400}
	if a.Duration() != 300 {
		t.Fatalf("Duration = %v", a.Duration())
	}
}

func TestBandResolution(t *testing.T) {
	f := sampleFleet()
	b, err := f.Networks[0].Band()
	if err != nil || b.Name != "bg" {
		t.Fatalf("Band() = %v, %v", b.Name, err)
	}
	if f.Networks[0].NumAPs() != 3 {
		t.Fatalf("NumAPs = %d", f.Networks[0].NumAPs())
	}
}

func BenchmarkWriteRead(b *testing.B) {
	f := sampleFleet()
	for i := 0; i < b.N; i++ {
		var buf bytes.Buffer
		if err := Write(&buf, f); err != nil {
			b.Fatal(err)
		}
		if _, err := Read(&buf); err != nil {
			b.Fatal(err)
		}
	}
}
