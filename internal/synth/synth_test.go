package synth

import (
	"bytes"
	"errors"
	"fmt"
	"sync/atomic"
	"testing"
	"time"

	"meshlab/internal/leakcheck"
	"meshlab/internal/radio"
	"meshlab/internal/wire"
)

// TestMain fails the package if a test leaves a synthesis worker running.
func TestMain(m *testing.M) { leakcheck.Main(m) }

func TestGenerateQuick(t *testing.T) {
	f, err := Generate(Quick(1))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	// 12 networks, one of which is dual-band → 13 network datasets.
	if len(f.Networks) != 13 {
		t.Fatalf("got %d network datasets, want 13", len(f.Networks))
	}
	if len(f.Clients) != 12 {
		t.Fatalf("got %d client datasets, want 12", len(f.Clients))
	}
	if f.NumProbeSets() == 0 {
		t.Fatal("no probe sets generated")
	}
	if got := len(f.ByBand("n")); got != 3 {
		t.Fatalf("%d 802.11n datasets, want 3", got)
	}
	if f.Meta.Seed != 1 || f.Meta.ProbeInterval != 300 {
		t.Fatalf("meta wrong: %+v", f.Meta)
	}
}

func TestGenerateDeterminism(t *testing.T) {
	a, err := Generate(Quick(7))
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(Quick(7))
	if err != nil {
		t.Fatal(err)
	}
	if a.NumProbeSets() != b.NumProbeSets() {
		t.Fatalf("probe set counts differ: %d vs %d", a.NumProbeSets(), b.NumProbeSets())
	}
	if len(a.Networks) != len(b.Networks) {
		t.Fatal("network counts differ")
	}
	for i := range a.Networks {
		if len(a.Networks[i].Links) != len(b.Networks[i].Links) {
			t.Fatalf("network %d link counts differ", i)
		}
	}
	for i := range a.Clients {
		if len(a.Clients[i].Clients) != len(b.Clients[i].Clients) {
			t.Fatalf("network %d client counts differ", i)
		}
	}
}

// TestGenerateParallelMatchesSerial pins the parallel fan-out to the
// serial path at the byte level: the wire encodings must be identical, so
// no table or figure can depend on the worker count.
func TestGenerateParallelMatchesSerial(t *testing.T) {
	encode := func(workers int) []byte {
		opts := Quick(11)
		opts.Workers = workers
		f, err := Generate(opts)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		var buf bytes.Buffer
		if err := wire.Write(&buf, f); err != nil {
			t.Fatalf("workers=%d: encode: %v", workers, err)
		}
		return buf.Bytes()
	}
	serial := encode(1)
	for _, workers := range []int{4, 0} {
		if got := encode(workers); !bytes.Equal(got, serial) {
			t.Fatalf("workers=%d produced a different fleet than the serial path (%d vs %d bytes)",
				workers, len(got), len(serial))
		}
	}
}

func TestOptionsMetaMatchesGenerated(t *testing.T) {
	opts := Quick(6)
	f, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if f.Meta != opts.Meta() {
		t.Fatalf("Options.Meta %+v differs from generated meta %+v", opts.Meta(), f.Meta)
	}
	// Zero-valued sub-configs must resolve to the same defaults Generate
	// applies.
	ref := Reference(6)
	if m := ref.Meta(); m.ProbeDuration != 86400 || m.ProbeInterval != 1200 || m.ClientDuration != 39600 {
		t.Fatalf("reference meta defaults wrong: %+v", m)
	}
}

func TestGenerateSeedsDiffer(t *testing.T) {
	a, _ := Generate(Quick(1))
	b, _ := Generate(Quick(2))
	if a.NumProbeSets() == b.NumProbeSets() && len(a.Networks[0].Links) == len(b.Networks[0].Links) {
		// Extremely unlikely to match on both counts with different
		// fleets; treat as suspicious.
		t.Log("warning: seeds 1 and 2 produced identical summary counts")
	}
}

func TestSkipClients(t *testing.T) {
	opts := Quick(3)
	opts.SkipClients = true
	f, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Clients) != 0 {
		t.Fatal("SkipClients should omit client data")
	}
}

func TestRadioParamsOverride(t *testing.T) {
	opts := Quick(4)
	// Generate's workers call the override concurrently.
	var calls atomic.Int64
	opts.RadioParams = func(outdoor bool) radio.Params {
		calls.Add(1)
		p := radio.DefaultParams(radio.Indoor)
		p.DisableOffsets = true
		return p
	}
	if _, err := Generate(opts); err != nil {
		t.Fatal(err)
	}
	if calls.Load() == 0 {
		t.Fatal("RadioParams override never used")
	}
}

func TestGenerateBadFleetConfig(t *testing.T) {
	opts := Quick(5)
	opts.Fleet.NumIndoor = 99
	if _, err := Generate(opts); err == nil {
		t.Fatal("inconsistent fleet config should error")
	}
}

func TestReferenceShape(t *testing.T) {
	opts := Reference(9)
	if opts.Fleet.NumNetworks != 110 {
		t.Fatalf("reference fleet has %d networks", opts.Fleet.NumNetworks)
	}
	if opts.Probe.Duration != 86400 {
		t.Fatalf("reference probe duration %v", opts.Probe.Duration)
	}
}

func TestCacheValidatable(t *testing.T) {
	if !Quick(1).CacheValidatable() || !Reference(1).CacheValidatable() {
		t.Fatal("presets must be cache-validatable")
	}
	o := Quick(1)
	o.Probe.ProbesPerRate = 40
	if o.CacheValidatable() {
		t.Fatal("non-default ProbesPerRate is not recorded in a cache and must not validate")
	}
	o = Quick(1)
	o.Clients.WalkerFrac = 0.5
	if o.CacheValidatable() {
		t.Fatal("non-default client mixture must not validate")
	}
	// Fractional durations collide with their int32-truncated Meta.
	o = Quick(1)
	o.Probe.ReportInterval = 300.9
	if o.CacheValidatable() {
		t.Fatal("fractional cadence must not validate against whole-second Meta")
	}
	o = Quick(1)
	o.RadioParams = func(bool) radio.Params { return radio.DefaultParams(radio.Indoor) }
	if o.CacheValidatable() {
		t.Fatal("RadioParams override must not validate")
	}
}

func TestCacheValidatableRejectsOutOfRangeDurations(t *testing.T) {
	o := Quick(1)
	o.Probe.Duration = 3e9 // beyond int32 seconds: Meta would truncate
	if o.CacheValidatable() {
		t.Fatal("durations beyond int32 must not validate against a cache")
	}
}

// shortQuick is the quick fleet with a one-hour probe window: the same
// 12 networks, synthesized fast enough to run many times.
func shortQuick(seed uint64, workers int) Options {
	opts := Quick(seed)
	opts.Probe.Duration = 3600
	opts.Workers = workers
	return opts
}

// TestRunEmitsInFleetOrderWithinWindow pins Run to Generate and bounds
// what it holds: networks come out in fleet order, and no more than
// the worker count are synthesized or in synthesis but not yet emitted,
// even when emitting is slow.
func TestRunEmitsInFleetOrderWithinWindow(t *testing.T) {
	want, err := Generate(shortQuick(12, 1))
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{1, 2, 4} {
		g, err := NewGenerator(shortQuick(12, workers))
		if err != nil {
			t.Fatal(err)
		}
		if g.NumDatasets() != len(want.Networks) {
			t.Fatalf("NumDatasets = %d, Generate made %d", g.NumDatasets(), len(want.Networks))
		}
		var got []string
		err = g.Run(func(nw Network) error {
			for _, nd := range nw.Datasets {
				got = append(got, nd.Info.Name+"/"+nd.Info.Band)
			}
			time.Sleep(2 * time.Millisecond) // let workers run ahead
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		for i, nd := range want.Networks {
			if got[i] != nd.Info.Name+"/"+nd.Info.Band {
				t.Fatalf("workers=%d: dataset %d is %s, want %s/%s", workers, i, got[i], nd.Info.Name, nd.Info.Band)
			}
		}
		if p := int(g.maxPend.Load()); p < 1 || p > workers {
			t.Fatalf("workers=%d: held %d networks at once", workers, p)
		}
	}
}

// TestRunEmitErrorStopsAndJoins: an emit that fails on the k-th network
// ends the run with that error, after exactly k+1 emits, and every
// worker goroutine has exited by the time Run returns.
func TestRunEmitErrorStopsAndJoins(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, k := range []int{0, 1, 5, 11} {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				before := leakcheck.Take()
				g, err := NewGenerator(shortQuick(13, workers))
				if err != nil {
					t.Fatal(err)
				}
				boom := errors.New("emit failed")
				emits := 0
				err = g.Run(func(Network) error {
					emits++
					if emits == k+1 {
						return boom
					}
					return nil
				})
				if !errors.Is(err, boom) {
					t.Fatalf("Run returned %v, want the emit error", err)
				}
				if emits != k+1 {
					t.Fatalf("%d emits after a failure at emit %d", emits, k+1)
				}
				if err := before.Check(time.Second); err != nil {
					t.Fatal(err)
				}
			})
		}
	}
}
