package experiments

import (
	"bytes"
	"strings"
	"testing"

	"meshlab/internal/binio"
)

// replaySelections are the ways fig4.6 and tab4.1 can be selected: each
// alone and both, in either order.
var replaySelections = [][]string{{"fig4.6"}, {"tab4.1"}, {"fig4.6", "tab4.1"}, {"tab4.1", "fig4.6"}}

// checkAgainstSuite fails unless every result renders exactly as the full
// suite's result of the same experiment.
func checkAgainstSuite(t *testing.T, label string, got []*Result, ids []string) {
	t.Helper()
	want := map[string]string{}
	for _, r := range fullSuite(t) {
		want[r.ID] = r.Format()
	}
	if len(got) != len(ids) {
		t.Fatalf("%s %v: %d results", label, ids, len(got))
	}
	for i, r := range got {
		if r.ID != ids[i] || r.Format() != want[r.ID] {
			t.Fatalf("%s %v: %s differs from the full suite:\n%s\n--- suite ---\n%s", label, ids, ids[i], r.Format(), want[ids[i]])
		}
	}
}

// TestStrategyReplaySelections: a StreamContext runs one strategy replay
// for fig4.6 and tab4.1, and every selection of them — alone or together,
// walked, fed as sample groups through SampleRun, or merged from one
// shard per network — renders the full suite's bytes.
func TestStrategyReplaySelections(t *testing.T) {
	f := quickFleet(t)
	groups := bandGroups(t, f)
	for _, ids := range replaySelections {
		walked, err := runFleet(f, 2, ids...)
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSuite(t, "walk", walked, ids)

		run, err := NewSampleRun(ids)
		if err != nil {
			t.Fatal(err)
		}
		for _, g := range groups {
			if err := run.ObserveGroup(g.band, g.samples); err != nil {
				t.Fatal(err)
			}
		}
		sampled, err := run.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSuite(t, "sample run", sampled, ids)

		merged := NewStreamContext(1, ids...)
		for _, nd := range f.Networks {
			shard := NewStreamContext(1, ids...)
			if err := shard.Observe(nd); err != nil {
				t.Fatal(err)
			}
			if err := merged.Merge(shard); err != nil {
				t.Fatal(err)
			}
		}
		merged.SetClients(f.Clients)
		sharded, err := merged.Finalize()
		if err != nil {
			t.Fatal(err)
		}
		checkAgainstSuite(t, "shard per network", sharded, ids)
	}
}

// replaySnapshot is a snapshot of a sample run of ids fed the first n
// groups, and its envelope header's length.
func replaySnapshot(t *testing.T, ids []string, n int) (snap []byte, head int) {
	t.Helper()
	sc := NewStreamContext(1, ids...)
	sc.DeferSamples()
	for _, g := range bandGroups(t, quickFleet(t))[:n] {
		if err := sc.ObserveSampleGroup(g.band, g.samples); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := sc.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := sc.Drain(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), len(replayHeader(t, len(ids)))
}

// replayHeader is a StreamContext snapshot envelope for a sample run with
// n experiments that has observed no network.
func replayHeader(t *testing.T, n int) []byte {
	t.Helper()
	var buf bytes.Buffer
	w := binio.NewWriter(&buf)
	w.U8(streamSnapVersion)
	w.Int(0)
	w.Bool(true)
	w.Int(n)
	if err := w.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestStrategyReplaySnapshotSections: fig4.6 and tab4.1 each write the
// shared replay into their own section, so a snapshot of both restores
// into a run of either, and a snapshot whose two sections disagree is
// refused.
func TestStrategyReplaySnapshotSections(t *testing.T) {
	both := []string{"fig4.6", "tab4.1"}
	snap, head := replaySnapshot(t, both, 3)
	re := NewStreamContext(1, both...)
	re.DeferSamples()
	if err := re.Restore(bytes.NewReader(snap)); err != nil {
		t.Fatal(err)
	}
	if err := re.Drain(); err != nil {
		t.Fatal(err)
	}

	fig, figHead := replaySnapshot(t, []string{"fig4.6"}, 1)
	tab, tabHead := replaySnapshot(t, []string{"tab4.1"}, 3)
	mixed := append(replayHeader(t, 2), fig[figHead:]...)
	mixed = append(mixed, tab[tabHead:]...)
	if !bytes.Equal(append(replayHeader(t, 2), snap[head:]...), snap) {
		t.Fatal("the test's envelope header does not match StreamContext.Snapshot's")
	}
	bad := NewStreamContext(1, both...)
	bad.DeferSamples()
	err := bad.Restore(bytes.NewReader(mixed))
	if err == nil || !strings.Contains(err.Error(), "different strategy replays") {
		t.Fatalf("restore of disagreeing sections: %v", err)
	}
	if err := bad.Drain(); err != nil {
		t.Fatal(err)
	}
}
