package wire

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"os"
	"strings"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/scenario"
	"meshlab/internal/synth"
)

// encoderGoldens are the sha256 digests of `meshgen -scenario <name>`
// output (seeded by the spec) before the streaming encoder existed, when
// Write and WriteWithSamples staged each record and the sample section
// in memory: plain MLF2, then with the flat-sample section.
var encoderGoldens = map[string][2]string{
	"quick":               {"77fee83e3c8bc42371d91e9ac5038e1547bb7c33f49bbe5dfbf46da70bcc5cee", "aa1a7f989d4b0eff8a2e84860471e7190bcc9e128adbb07bbe8f3789cb554dac"},
	"dense-urban":         {"62f65a57491e762ae6f21b74f0ae8bb31392495820d3c78e1ab6a164f0da79a2", "1316f124b4a0471a4a0ac168555f9977294e10774986b61028e4e2a550864849"},
	"sparse-rural":        {"f9643b3d4fa52280c7846619ab57166f19daa372860ecaf15599d9cfab577068", "b8ab843035c76b52b9589ce919f1502f4ea5d5309cf838cf89191ca889a5a1c6"},
	"high-churn":          {"031d74de6f20751cb8bd30e64cea15577bce8372f4803f6e73824f27d351e8f3", "2cdc12c567ee2be9d14091009251f07acb0436846f7e2ee5cfccb5904c1a1f8b"},
	"mixed-band-steering": {"1c07d7cb6fc33fa28a94dcc1b9c7c3f5f39f775882b75e82ad604becb813a829", "dc9e42c763888eb70803a66e6aad1a7859770e180ecf055d9607312ae763eab1"},
}

func digest(b []byte) string {
	s := sha256.Sum256(b)
	return hex.EncodeToString(s[:])
}

// streamEncode synthesizes opts network by network straight into an
// Encoder, the way meshgen does.
func streamEncode(t *testing.T, opts synth.Options, eo EncodeOptions) []byte {
	t.Helper()
	g, err := synth.NewGenerator(opts)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	enc := NewEncoder(&buf, g.Meta(), g.NumDatasets(), eo)
	defer enc.Abort()
	err = g.Run(func(nw synth.Network) error {
		for _, nd := range nw.Datasets {
			if err := enc.Network(nd); err != nil {
				return err
			}
		}
		if nw.Clients != nil {
			return enc.Clients(nw.Clients)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestEncoderMatchesWrite pins the streaming encoder to the bytes the
// whole-fleet writers produced: every built-in small scenario, with and
// without the sample section, streamed (spooling on disk and in memory)
// and written from the materialized fleet. No spool file outlives the
// encoder.
func TestEncoderMatchesWrite(t *testing.T) {
	for name, want := range encoderGoldens {
		t.Run(name, func(t *testing.T) {
			sp, err := scenario.Builtin(name)
			if err != nil {
				t.Fatal(err)
			}
			opts := sp.Options()
			f, err := synth.Generate(opts)
			if err != nil {
				t.Fatal(err)
			}
			var plain, sampled bytes.Buffer
			if err := Write(&plain, f); err != nil {
				t.Fatal(err)
			}
			if _, err := WriteWithSamples(&sampled, f); err != nil {
				t.Fatal(err)
			}
			dir := t.TempDir()
			for _, c := range []struct {
				what string
				got  []byte
				want string
			}{
				{"Write", plain.Bytes(), want[0]},
				{"WriteWithSamples", sampled.Bytes(), want[1]},
				{"streamed", streamEncode(t, opts, EncodeOptions{SpoolDir: dir}), want[0]},
				{"streamed with samples, disk spool", streamEncode(t, opts, EncodeOptions{Samples: true, SpoolDir: dir}), want[1]},
				{"streamed with samples, memory spool", streamEncode(t, opts, EncodeOptions{Samples: true}), want[1]},
			} {
				if got := digest(c.got); got != c.want {
					t.Errorf("%s: sha256 %s, want %s", c.what, got, c.want)
				}
			}
			if left, _ := os.ReadDir(dir); len(left) != 0 {
				t.Fatalf("spool files left behind: %v", left)
			}
		})
	}
}

// TestRecordSizeMatchesEncoding: the up-front record length is the
// encoded length, for every network of a fleet.
func TestRecordSizeMatchesEncoding(t *testing.T) {
	for _, nd := range quickFleet(t).Networks {
		size, err := recordSize(nd)
		if err != nil {
			t.Fatal(err)
		}
		var w writer
		writeNetwork(&w, nd, nil)
		if int64(len(w.buf)) != size {
			t.Fatalf("network %s/%s: recordSize %d, encoded %d bytes", nd.Info.Name, nd.Info.Band, size, len(w.buf))
		}
	}
}

// encodeErrorFleet is a one-network fleet every field limit can be
// broken on.
func encodeErrorFleet() *dataset.Fleet {
	return &dataset.Fleet{
		Networks: []*dataset.NetworkData{{
			Info: dataset.NetworkInfo{Name: "net", Band: "bg", Env: "indoor", Spacing: 10,
				APs: []dataset.APInfo{{Name: "a"}, {Name: "b"}}},
			Links: []*dataset.Link{{From: 0, To: 1, Sets: []dataset.ProbeSet{
				{T: 1, SNR: 20, Obs: []dataset.Obs{{RateIdx: 0, Loss: 0.1}}},
			}}},
		}},
		Clients: []*dataset.ClientData{{Network: "net", Env: "indoor", Duration: 100, NumAPs: 2,
			Clients: []dataset.ClientLog{{ID: 1, Assocs: []dataset.Assoc{{AP: 0, Start: 0, End: 10}}}}}},
	}
}

// TestEncodeErrors: every field limit fails the encoding with the text
// the whole-fleet writers used, through Write, WriteWithSamples and a
// streaming Encoder alike. The string-length cases are the exception:
// the staged writers dropped the string and wrote a corrupt file with
// no error; the encoder rejects it with the writer's message.
func TestEncodeErrors(t *testing.T) {
	long := strings.Repeat("x", 70000)
	for _, c := range []struct {
		name string
		mut  func(f *dataset.Fleet)
		want string
	}{
		{"band", func(f *dataset.Fleet) { f.Networks[0].Info.Band = "zz" }, `wire: unknown band "zz"`},
		{"env", func(f *dataset.Fleet) { f.Networks[0].Info.Env = "space" }, `wire: unknown environment "space"`},
		{"aps", func(f *dataset.Fleet) { f.Networks[0].Info.APs = make([]dataset.APInfo, 70000) }, "wire: network net too large"},
		{"endpoint", func(f *dataset.Fleet) { f.Networks[0].Links[0].From = 70000 }, "wire: network net: link 70000→1 endpoints do not fit u16"},
		{"obs", func(f *dataset.Fleet) { f.Networks[0].Links[0].Sets[0].Obs = make([]dataset.Obs, 256) },
			"wire: network net link 0→1 probe set 0: 256 observations exceed the format's u8 limit of 255"},
		{"rate", func(f *dataset.Fleet) { f.Networks[0].Links[0].Sets[0].Obs[0].RateIdx = 200 },
			"wire: network net link 0→1: observation rate index 200 out of range for band bg (7 rates)"},
		{"network name", func(f *dataset.Fleet) { f.Networks[0].Info.Name = long }, "wire: string too long (70000 bytes)"},
		{"AP name", func(f *dataset.Fleet) { f.Networks[0].Info.APs[0].Name = long }, "wire: string too long (70000 bytes)"},
		{"client env", func(f *dataset.Fleet) { f.Clients[0].Env = "space" }, `wire: unknown environment "space"`},
		{"client AP count", func(f *dataset.Fleet) { f.Clients[0].NumAPs = 70000 }, "wire: client dataset net: AP count 70000 does not fit u16"},
		{"client ID", func(f *dataset.Fleet) { f.Clients[0].Clients[0].ID = -1 }, "wire: client dataset net: client ID -1 does not fit u32"},
		{"association AP", func(f *dataset.Fleet) { f.Clients[0].Clients[0].Assocs[0].AP = 70000 },
			"wire: client dataset net client 1: association AP 70000 does not fit u16"},
		{"client network name", func(f *dataset.Fleet) { f.Clients[0].Network = long }, "wire: string too long (70000 bytes)"},
	} {
		f := encodeErrorFleet()
		c.mut(f)
		if err := Write(io.Discard, f); err == nil || err.Error() != c.want {
			t.Errorf("%s: Write error %v, want %q", c.name, err, c.want)
		}
		if _, err := WriteWithSamples(io.Discard, f); err == nil || err.Error() != c.want {
			t.Errorf("%s: WriteWithSamples error %v, want %q", c.name, err, c.want)
		}
		enc := NewEncoder(io.Discard, f.Meta, 1, EncodeOptions{Samples: true, SpoolDir: t.TempDir()})
		err := enc.Network(f.Networks[0])
		if err == nil {
			err = enc.Clients(f.Clients[0])
		}
		if err == nil || err.Error() != c.want {
			t.Errorf("%s: Encoder error %v, want %q", c.name, err, c.want)
		}
		if cerr := enc.Close(); cerr != err {
			t.Errorf("%s: Close returned %v after %v", c.name, cerr, err)
		}
	}
}

// TestEncoderCountMismatch: the header's network count is a promise the
// encoder holds the caller to.
func TestEncoderCountMismatch(t *testing.T) {
	f := encodeErrorFleet()
	enc := NewEncoder(io.Discard, f.Meta, 2, EncodeOptions{})
	if err := enc.Network(f.Networks[0]); err != nil {
		t.Fatal(err)
	}
	if err := enc.Close(); err == nil || !strings.Contains(err.Error(), "1 networks encoded, 2 declared") {
		t.Fatalf("short stream: %v", err)
	}
	enc = NewEncoder(io.Discard, f.Meta, 0, EncodeOptions{})
	if err := enc.Network(f.Networks[0]); err == nil || !strings.Contains(err.Error(), "beyond the 0 declared") {
		t.Fatalf("long stream: %v", err)
	}
	enc.Abort()
	if err := enc.Network(f.Networks[0]); err == nil {
		t.Fatal("Network after Abort succeeded")
	}
}

// BenchmarkEncodeNetwork encodes the quick fleet's largest network with
// its sample group, spooled on disk as meshgen does.
func BenchmarkEncodeNetwork(b *testing.B) {
	f := quickFleet(b)
	nd := f.Networks[0]
	sets := func(nd *dataset.NetworkData) (n int) {
		for _, l := range nd.Links {
			n += len(l.Sets)
		}
		return n
	}
	for _, cand := range f.Networks {
		if sets(cand) > sets(nd) {
			nd = cand
		}
	}
	dir := b.TempDir()
	b.ReportAllocs()
	for b.Loop() {
		enc := NewEncoder(io.Discard, f.Meta, 1, EncodeOptions{Samples: true, SpoolDir: dir})
		if err := enc.Network(nd); err != nil {
			b.Fatal(err)
		}
		if err := enc.Close(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(sets(nd)), "sets/op")
}
