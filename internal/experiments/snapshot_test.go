package experiments

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/snr"
)

// bandGroups materializes the per-network sample groups a wire walk
// would deliver to ObserveSampleGroup during a deferred sample phase.
func bandGroups(t testing.TB, f *dataset.Fleet) []struct {
	band    string
	samples []snr.Sample
} {
	t.Helper()
	var groups []struct {
		band    string
		samples []snr.Sample
	}
	for _, band := range []string{"bg", "n"} {
		for _, nd := range f.ByBand(band) {
			samples, err := snr.Flatten([]*dataset.NetworkData{nd})
			if err != nil {
				t.Fatal(err)
			}
			groups = append(groups, struct {
				band    string
				samples []snr.Sample
			}{band, samples})
		}
	}
	if len(groups) < 3 {
		t.Fatalf("only %d sample groups; the snapshot oracle needs a mid-phase boundary", len(groups))
	}
	return groups
}

func formatAll(t *testing.T, results []*Result) []string {
	t.Helper()
	out := make([]string, len(results))
	for i, r := range results {
		out[i] = r.Format()
	}
	return out
}

func compareRuns(t *testing.T, label string, got, want []*Result) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: %d results vs %d", label, len(got), len(want))
	}
	for i := range want {
		if g, w := got[i].Format(), want[i].Format(); g != w {
			t.Fatalf("%s: %s diverged from the uninterrupted run:\n--- resumed ---\n%s\n--- uninterrupted ---\n%s",
				label, want[i].ID, g, w)
		}
	}
}

// TestStreamSnapshotResumeMatchesUninterrupted is the experiments-layer
// oracle: snapshotting a streaming run at a network boundary, restoring
// into a fresh context, and feeding the remaining networks must finalize
// byte-identically to an uninterrupted run — and taking the snapshot
// must not disturb the run that continues.
func TestStreamSnapshotResumeMatchesUninterrupted(t *testing.T) {
	f := quickFleet(t)
	want := streamRun(t, f, 2, false)

	splits := []int{1, len(f.Networks) / 2, len(f.Networks) - 1}
	for _, mid := range splits {
		sc := NewStreamContext(2)
		for _, nd := range f.Networks[:mid] {
			if err := sc.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		var buf bytes.Buffer
		if err := sc.Snapshot(&buf); err != nil {
			t.Fatalf("split %d: snapshot: %v", mid, err)
		}

		// Restore into a fresh context (different worker count on purpose)
		// and continue the walk.
		re := NewStreamContext(3)
		if err := re.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			t.Fatalf("split %d: restore: %v", mid, err)
		}
		for _, nd := range f.Networks[mid:] {
			if err := re.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		re.SetClients(f.Clients)
		got, err := re.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "restored", got, want)

		// The snapshotted context keeps running unperturbed.
		for _, nd := range f.Networks[mid:] {
			if err := sc.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		sc.SetClients(f.Clients)
		cont, err := sc.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "continued-after-snapshot", cont, want)
	}
}

// TestStreamSnapshotResumeDeferredSamples covers the second checkpoint
// site: a deferred sample phase snapshotted at a sample-group (network)
// boundary, mid-phase.
func TestStreamSnapshotResumeDeferredSamples(t *testing.T) {
	f := quickFleet(t)
	groups := bandGroups(t, f)

	run := func(snapAt int) ([]*Result, []byte) {
		sc := NewStreamContext(2)
		sc.DeferSamples()
		for _, nd := range f.Networks {
			if err := sc.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		var snap []byte
		for i, g := range groups {
			if i == snapAt {
				var buf bytes.Buffer
				if err := sc.Snapshot(&buf); err != nil {
					t.Fatalf("snapshot at group %d: %v", i, err)
				}
				snap = buf.Bytes()
			}
			if err := sc.ObserveSampleGroup(g.band, g.samples); err != nil {
				t.Fatal(err)
			}
		}
		sc.FinishSamples()
		sc.SetClients(f.Clients)
		results, err := sc.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		return results, snap
	}

	want, _ := run(-1)
	// Sanity: the group-fed deferred walk matches the walk-flattened run.
	compareRuns(t, "group-fed-deferred", want, streamRun(t, f, 2, false))

	for _, snapAt := range []int{1, len(groups) / 2, len(groups) - 1} {
		cont, snap := run(snapAt)
		compareRuns(t, "continued-after-snapshot", cont, want)

		re := NewStreamContext(2)
		re.DeferSamples()
		if err := re.Restore(bytes.NewReader(snap)); err != nil {
			t.Fatalf("restore at group %d: %v", snapAt, err)
		}
		for _, g := range groups[snapAt:] {
			if err := re.ObserveSampleGroup(g.band, g.samples); err != nil {
				t.Fatal(err)
			}
		}
		re.FinishSamples()
		re.SetClients(f.Clients)
		got, err := re.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		compareRuns(t, "restored-mid-samples", got, want)
	}
}

// TestStreamSnapshotLifecycleAndCorruption pins the guardrails: refusal
// on used or finalized contexts, and contextual errors (never panics,
// never silent partial restores) on corrupt snapshots.
func TestStreamSnapshotLifecycleAndCorruption(t *testing.T) {
	f := quickFleet(t)

	// Build a valid snapshot to corrupt.
	sc := NewStreamContext(2)
	defer sc.Drain()
	for _, nd := range f.Networks[:2] {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	snap := buf.Bytes()

	// Restore only loads into a fresh context.
	if err := sc.Restore(bytes.NewReader(snap)); err == nil {
		t.Fatal("Restore on a used context should refuse")
	}

	// Truncations at every stride must error, never panic.
	for cut := 0; cut < len(snap); cut += 1 + len(snap)/64 {
		if err := NewStreamContext(1).Restore(bytes.NewReader(snap[:cut])); err == nil {
			t.Fatalf("truncation at %d/%d restored without error", cut, len(snap))
		}
	}
	// Version flip must error.
	flipped := append([]byte(nil), snap...)
	flipped[0] ^= 0xFF
	if err := NewStreamContext(1).Restore(bytes.NewReader(flipped)); err == nil {
		t.Fatal("version-flipped snapshot restored without error")
	}

	// Snapshot after Finalize must refuse.
	done := NewStreamContext(1)
	for _, nd := range f.Networks {
		if err := done.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	done.SetClients(f.Clients)
	if _, err := done.Finalize(); err != nil {
		t.Fatal(err)
	}
	if err := done.Snapshot(&bytes.Buffer{}); err == nil {
		t.Fatal("Snapshot after Finalize should refuse")
	}
}

// streamSnapshotDigests are the sha256 digests of a quick-fleet section
// run's StreamContext snapshot: after half the sample groups have been
// fed, and after all of them. A checkpoint written before a kernel change
// resumes after it only if these bytes hold.
var streamSnapshotDigests = [2]string{
	"1cd7ee6b879abb8388adbfe05d620dc1b55c2fbb327205130302d386d8602329",
	"2e6262f7625b5a5b6c2e05430a58321fef9d65af412d32230f3ccf2c3c236dc9",
}

// TestStreamSnapshotBytesPinned pins the whole-context checkpoint bytes
// of a section run (every network observed, then the flat-sample groups
// fed through ObserveSampleGroup), mid-feed and at its end. Each point is
// taken twice: with whole-network groups, and with every group split in
// two at a link boundary, which drives the penalty core's AP and Network
// banking. Both feeds must serialize the same bytes.
func TestStreamSnapshotBytesPinned(t *testing.T) {
	f := quickFleet(t)
	groups := bandGroups(t, f)
	for _, split := range []bool{false, true} {
		sc := NewStreamContext(2)
		sc.DeferSamples()
		for _, nd := range f.Networks {
			if err := sc.Observe(nd); err != nil {
				t.Fatal(err)
			}
		}
		var got [2]string
		snap := func(k int) {
			var buf bytes.Buffer
			if err := sc.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			sum := sha256.Sum256(buf.Bytes())
			got[k] = hex.EncodeToString(sum[:])
		}
		for i, g := range groups {
			if i == len(groups)/2 {
				snap(0)
			}
			parts := [][]snr.Sample{g.samples}
			if cut := linkCut(g.samples); split && cut > 0 {
				parts = [][]snr.Sample{g.samples[:cut], g.samples[cut:]}
			}
			for _, p := range parts {
				if err := sc.ObserveSampleGroup(g.band, p); err != nil {
					t.Fatal(err)
				}
			}
		}
		snap(1)
		sc.FinishSamples()
		if err := sc.Drain(); err != nil {
			t.Fatal(err)
		}
		for k, at := range []string{"mid-feed", "end of feed"} {
			if got[k] != streamSnapshotDigests[k] {
				t.Errorf("split %v, %s: snapshot digest %s, pinned %s", split, at, got[k], streamSnapshotDigests[k])
			}
		}
	}
}

// sectionlessSnapshotDigests are the sha256 digests of a quick-fleet
// section-less run's StreamContext snapshot (no DeferSamples: the walk
// flattens and feeds each network's samples itself): at the network
// boundary halfway through the fleet, and after the last network. Unlike
// streamSnapshotDigests, they hold partial §3/§5/§6 state.
var sectionlessSnapshotDigests = [2]string{
	"f7ab8660c1b5a24a4f7862d02a82c7de67e9ec84638e38cb38ee4a91f42d91dc",
	"b013e26fb23fc39bf3055200944760c6438f96621f349b7dbee8509edcf6e2d7",
}

// TestStreamSnapshotSectionlessBytesPinned pins the whole-context
// checkpoint bytes of a section-less walk, halfway through the fleet and
// at its end.
func TestStreamSnapshotSectionlessBytesPinned(t *testing.T) {
	f := quickFleet(t)
	sc := NewStreamContext(2)
	defer sc.Drain()
	var got [2]string
	snap := func(k int) {
		var buf bytes.Buffer
		if err := sc.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(buf.Bytes())
		got[k] = hex.EncodeToString(sum[:])
	}
	for i, nd := range f.Networks {
		if i == len(f.Networks)/2 {
			snap(0)
		}
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	snap(1)
	for k, at := range []string{"mid-walk", "end of walk"} {
		if got[k] != sectionlessSnapshotDigests[k] {
			t.Errorf("%s: snapshot digest %s, pinned %s", at, got[k], sectionlessSnapshotDigests[k])
		}
	}
}

// linkCut returns the first directed-link boundary at or after the middle
// of g, or 0 when g has no boundary there.
func linkCut(g []snr.Sample) int {
	for i := len(g) / 2; i > 0 && i < len(g); i++ {
		if g[i].From != g[i-1].From || g[i].To != g[i-1].To {
			return i
		}
	}
	return 0
}
