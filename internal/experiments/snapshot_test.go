package experiments

import (
	"bytes"
	"testing"

	"meshlab/internal/dataset"
	"meshlab/internal/snr"
)

// bandGroups materializes the per-network sample groups a wire walk
// would deliver to ObserveSampleGroup during a deferred sample phase.
func bandGroups(t *testing.T, f *dataset.Fleet) []struct {
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
