package wire

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"meshlab/internal/snr"
)

// groupWalk collects a SampleGroups walk at the given pool size.
func groupWalk(t testing.TB, data []byte, workers int) []*SampleGroup {
	t.Helper()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	var got []*SampleGroup
	if err := r.SampleGroups(workers, func(g *SampleGroup) error {
		got = append(got, g)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return got
}

// TestSampleGroupsMatchSamples: the group walk carries exactly the
// section's samples, per network, in file order — concatenating the
// groups reproduces Samples() (and therefore snr.Flatten) per band.
func TestSampleGroupsMatchSamples(t *testing.T) {
	f := quickFleet(t)
	_, v2s, _ := encodeVariants(t, f)

	r, err := NewReader(bytes.NewReader(v2s))
	if err != nil {
		t.Fatal(err)
	}
	want, err := r.Samples()
	if err != nil {
		t.Fatal(err)
	}

	groups := groupWalk(t, v2s, 2)
	// One group per (band, network-of-that-band) in fleet order; bands
	// contiguous.
	wantGroups := 0
	for _, nd := range f.Networks {
		_ = nd
		wantGroups++
	}
	if len(groups) != wantGroups {
		t.Fatalf("got %d groups, fleet has %d network datasets", len(groups), wantGroups)
	}
	cat := map[string][]snr.Sample{}
	lastBand := ""
	bandsSeen := map[string]bool{}
	for _, g := range groups {
		if g.Band != lastBand {
			if bandsSeen[g.Band] {
				t.Fatalf("band %s groups are not contiguous", g.Band)
			}
			bandsSeen[g.Band] = true
			lastBand = g.Band
		}
		for i := range g.Samples {
			if g.Samples[i].Net != g.Net {
				t.Fatalf("group %s carries a sample for network %s", g.Net, g.Samples[i].Net)
			}
		}
		cat[g.Band] = append(cat[g.Band], g.Samples...)
	}
	for band := range cat {
		if len(cat[band]) == 0 {
			delete(cat, band)
		}
	}
	if !reflect.DeepEqual(cat, want) {
		t.Fatal("concatenated groups diverge from Samples()")
	}
}

// TestSampleGroupsParallelOracle: the delivered group sequence is
// byte-identical at any pool size — the decode pool only changes wall
// clock.
func TestSampleGroupsParallelOracle(t *testing.T) {
	_, v2s, _ := encodeVariants(t, quickFleet(t))
	serial := groupWalk(t, v2s, 1)
	for _, workers := range []int{2, 8} {
		if got := groupWalk(t, v2s, workers); !reflect.DeepEqual(got, serial) {
			t.Fatalf("workers=%d: group walk diverges from serial", workers)
		}
	}
}

// TestSampleGroupsAbort: an fn error aborts the walk promptly, is
// returned verbatim, and poisons the reader instead of leaving it
// misaligned mid-section.
func TestSampleGroupsAbort(t *testing.T) {
	_, v2s, _ := encodeVariants(t, quickFleet(t))
	r, err := NewReader(bytes.NewReader(v2s))
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	calls := 0
	err = r.SampleGroups(2, func(*SampleGroup) error {
		calls++
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("abort error = %v, want the fn error", err)
	}
	if calls != 1 {
		t.Fatalf("fn ran %d times after aborting on the first group", calls)
	}
	if err := r.SampleGroups(2, func(*SampleGroup) error { return nil }); err == nil {
		t.Fatal("a second walk over an aborted reader must error")
	}
}

// TestSampleGroupsRequireSection: a section-less file directs the caller
// to the Flattener path instead of silently decoding nothing.
func TestSampleGroupsRequireSection(t *testing.T) {
	v2, _, _ := encodeVariants(t, quickFleet(t))
	r, err := NewReader(bytes.NewReader(v2))
	if err != nil {
		t.Fatal(err)
	}
	err = r.SampleGroups(1, func(*SampleGroup) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "no flat-sample section") {
		t.Fatalf("want a no-section error, got %v", err)
	}
}

// TestSampleGroupsTruncated: cutting the file inside the section yields a
// contextual error, never a panic or a hang. Cut positions sample the
// section's span, so group headers, row interiors, and chunk boundaries
// are all hit.
func TestSampleGroupsTruncated(t *testing.T) {
	f := quickFleet(t)
	v2, v2s, _ := encodeVariants(t, f)
	span := len(v2s) - len(v2)
	var cuts []int
	for i := 0; i < 16; i++ {
		cuts = append(cuts, len(v2)+span*i/16+i*7)
	}
	for _, cut := range cuts {
		r, err := NewReader(bytes.NewReader(v2s[:cut]))
		if err != nil {
			t.Fatal(err)
		}
		err = r.SampleGroups(2, func(*SampleGroup) error { return nil })
		if err == nil {
			t.Fatalf("truncation at %d/%d bytes should error", cut, len(v2s))
		}
		if !strings.Contains(err.Error(), "wire:") {
			t.Fatalf("truncation at %d: error lacks context: %v", cut, err)
		}
	}
}

// TestSampleGroupsLyingGroupCount: a section declaring more groups than
// it holds errors contextually once the stream runs dry.
func TestSampleGroupsLyingGroupCount(t *testing.T) {
	data := lyingGroupCount()
	r, err := NewReader(bytes.NewReader(data))
	if err != nil {
		t.Fatal(err)
	}
	err = r.SampleGroups(2, func(*SampleGroup) error { return nil })
	if err == nil || !strings.Contains(err.Error(), "wire:") {
		t.Fatalf("lying group count: want contextual error, got %v", err)
	}
}

func BenchmarkSampleGroupsDecode(b *testing.B) {
	var buf bytes.Buffer
	if _, err := WriteWithSamples(&buf, quickFleet(b)); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	for _, workers := range []int{1, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			b.SetBytes(int64(len(data)))
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				r, err := NewReader(bytes.NewReader(data))
				if err != nil {
					b.Fatal(err)
				}
				groups := 0
				if err := r.SampleGroups(workers, func(g *SampleGroup) error {
					groups++
					return nil
				}); err != nil {
					b.Fatal(err)
				}
				if groups == 0 {
					b.Fatal("no groups decoded")
				}
			}
		})
	}
}

// TestSampleGroupsSubChunking: with the sub-chunk size (and so the
// direct-decode threshold, twice it) lowered,
// big groups stream as multiple consecutive link-aligned chunks — a
// link's run never splits, networks stay contiguous, and the
// concatenated content equals the unsplit walk at any worker count.
func TestSampleGroupsSubChunking(t *testing.T) {
	_, v2s, _ := encodeVariants(t, quickFleet(t))
	whole := groupWalk(t, v2s, 2)

	old := snr.ChunkRows
	snr.ChunkRows = 32
	defer func() { snr.ChunkRows = old }()

	split := groupWalk(t, v2s, 2)
	if len(split) <= len(whole) {
		t.Fatalf("threshold 64 produced %d chunks for %d groups; expected splitting", len(split), len(whole))
	}
	// Networks contiguous; links never split across chunk boundaries.
	seen := map[string]bool{}
	for i, g := range split {
		key := g.Band + "/" + g.Net
		if i == 0 || split[i-1].Band+"/"+split[i-1].Net != key {
			if seen[key] {
				t.Fatalf("network %s chunks are not consecutive", key)
			}
			seen[key] = true
		} else if len(g.Samples) > 0 && len(split[i-1].Samples) > 0 {
			prev := split[i-1].Samples[len(split[i-1].Samples)-1]
			first := g.Samples[0]
			if prev.From == first.From && prev.To == first.To {
				t.Fatalf("network %s: link %d→%d split across chunks %d/%d", g.Net, first.From, first.To, i-1, i)
			}
		}
	}
	// Same content, same order.
	cat := func(gs []*SampleGroup) map[string][]snr.Sample {
		out := map[string][]snr.Sample{}
		for _, g := range gs {
			out[g.Band] = append(out[g.Band], g.Samples...)
		}
		return out
	}
	a, b := cat(whole), cat(split)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("sub-chunked walk content diverges from the unsplit walk")
	}
	// The parallel oracle holds for the split path too.
	if again := groupWalk(t, v2s, 8); !reflect.DeepEqual(split, again) {
		t.Fatal("split walk diverges across worker counts")
	}
	// Truncations still error contextually through the sub-chunk path.
	r, err := NewReader(bytes.NewReader(v2s[:len(v2s)-31]))
	if err != nil {
		t.Fatal(err)
	}
	if err := r.SampleGroups(2, func(*SampleGroup) error { return nil }); err == nil || !strings.Contains(err.Error(), "wire:") {
		t.Fatalf("truncated sub-chunk walk: %v", err)
	}
}
