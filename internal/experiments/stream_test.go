package experiments

import (
	"reflect"
	"testing"

	"meshlab/internal/dataset"
)

// streamRun pushes a materialized fleet through a StreamContext the way a
// wire.Reader walk would, returning the finalized results. With deferred,
// the §4 samples arrive after the walk as a file section's per-network
// groups instead of being flattened off the walk.
func streamRun(t *testing.T, f *dataset.Fleet, workers int, deferred bool) []*Result {
	t.Helper()
	sc := NewStreamContext(workers)
	if deferred {
		sc.DeferSamples()
	}
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if deferred {
		for _, g := range bandGroups(t, f) {
			if err := sc.ObserveSampleGroup(g.band, g.samples); err != nil {
				t.Fatal(err)
			}
		}
		sc.FinishSamples()
	}
	results, err := sc.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	return results
}

// TestStreamBoundedInFlight pins the memory contract: the pipeline never
// holds more than a bounded window of networks regardless of fleet size.
func TestStreamBoundedInFlight(t *testing.T) {
	f := quickFleet(t)
	sc := NewStreamContext(2)
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if _, err := sc.Finalize(); err != nil {
		t.Fatal(err)
	}
	networks, maxInFlight := sc.Stats()
	if networks != len(f.Networks) {
		t.Fatalf("observed %d networks, fleet has %d", networks, len(f.Networks))
	}
	// Channel capacity (workers) + the job being collected + the one being
	// submitted.
	if bound := 2 + 2; maxInFlight > bound {
		t.Fatalf("max in-flight networks %d exceeds pipeline bound %d", maxInFlight, bound)
	}
	if maxInFlight >= len(f.Networks) {
		t.Fatalf("pipeline held the whole fleet (%d networks) at once", maxInFlight)
	}
}

// TestStreamLifecycleErrors: the context enforces its single-use walk
// protocol and surfaces a deferred sample section that never arrived.
func TestStreamLifecycleErrors(t *testing.T) {
	f := quickFleet(t)

	sc := NewStreamContext(1)
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("an empty walk should fail (experiments see no data)")
	}
	if err := sc.Observe(f.Networks[0]); err == nil {
		t.Fatal("Observe after Finalize should error")
	}
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("double Finalize should error")
	}

	// DeferSamples with no sample groups: the §4 experiments must fail
	// loudly instead of silently running on zero samples.
	sc = NewStreamContext(1)
	sc.DeferSamples()
	for _, nd := range f.Networks {
		if err := sc.Observe(nd); err != nil {
			t.Fatal(err)
		}
	}
	sc.SetClients(f.Clients)
	if _, err := sc.Finalize(); err == nil {
		t.Fatal("deferred samples that never arrived should fail Finalize")
	}
}

// TestSelectionBoundsWork pins that a run's cost follows its selection:
// a context that selects only fig7.1 builds no routing matrix and
// flattens no samples. Each network below makes one of those steps fail
// — a band without a rate table, a link to an AP that does not exist —
// so the fig7.1 run succeeds only if it skipped both, while the full
// suite fails on either.
func TestSelectionBoundsWork(t *testing.T) {
	f := quickFleet(t)
	noRates := &dataset.NetworkData{Info: dataset.NetworkInfo{Name: "no-rates", Band: "zz"}}
	badLink := *f.ByBand("bg")[0]
	badLink.Info.Name = "bad-link"
	badLink.Links = append([]*dataset.Link{{From: 0, To: len(badLink.Info.APs)}}, badLink.Links...)
	bogus := []*dataset.NetworkData{noRates, &badLink}

	for _, nd := range bogus {
		if _, err := runFleet(&dataset.Fleet{Networks: []*dataset.NetworkData{nd}, Clients: f.Clients}, 1); err == nil {
			t.Fatalf("%s: the full suite should fail on it (the premise of this test)", nd.Info.Name)
		}
	}
	results, err := runFleet(&dataset.Fleet{Networks: bogus, Clients: f.Clients}, 1, "fig7.1")
	if err != nil {
		t.Fatalf("fig7.1 alone built a routing matrix or flattened samples: %v", err)
	}
	if len(results) != 1 || results[0].ID != "fig7.1" {
		t.Fatalf("got %d results, want fig7.1 alone", len(results))
	}
}

// TestSampleIDs: the sample-only population is exactly the §4 artifacts
// plus the §4.5 extension, and a fleet-less SampleRun fed the file
// section's groups reproduces their tables from the full suite.
func TestSampleIDs(t *testing.T) {
	want := []string{"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1", "ext4.topk"}
	if got := SampleIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("SampleIDs = %v, want %v", got, want)
	}
	if SampleOnly("fig5.1") || SampleOnly("nope") {
		t.Fatal("fig5.1 and unknown IDs must not be sample-only")
	}
	for _, ids := range [][]string{{"fig5.1"}, {"nope"}, nil} {
		if _, err := NewSampleRun(ids); err == nil {
			t.Fatalf("NewSampleRun(%v) should be refused", ids)
		}
	}

	run, err := NewSampleRun(SampleIDs())
	if err != nil {
		t.Fatal(err)
	}
	for _, g := range bandGroups(t, quickFleet(t)) {
		if err := run.ObserveGroup(g.band, g.samples); err != nil {
			t.Fatal(err)
		}
	}
	got, err := run.Finalize()
	if err != nil {
		t.Fatal(err)
	}
	full := map[string]string{}
	for _, r := range fullSuite(t) {
		full[r.ID] = r.Format()
	}
	for i, id := range SampleIDs() {
		if got[i].Format() != full[id] {
			t.Fatalf("%s diverges between the sample run and the full suite", id)
		}
	}
}
