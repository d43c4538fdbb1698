package synth

import (
	"testing"
)

// TestTopologyMatcherAgreesWithBatch pins the incremental matcher to a
// batch-generated fleet, across the match/mismatch cases a streaming
// cache validation hits.
func TestTopologyMatcherAgreesWithBatch(t *testing.T) {
	opts := Quick(23)
	opts.SkipClients = true
	f, err := Generate(opts)
	if err != nil {
		t.Fatal(err)
	}

	// The generated fleet matches itself, both incrementally and in batch.
	m, err := NewTopologyMatcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i, nd := range f.Networks {
		if !m.Match(nd.Info) {
			t.Fatalf("network %d (%s/%s) should match its own layout", i, nd.Info.Name, nd.Info.Band)
		}
	}
	if !m.Done() {
		t.Fatal("all networks matched but Done is false")
	}
	if m.Len() != len(f.Networks) {
		t.Fatalf("matcher expects %d network datasets, the fleet has %d", m.Len(), len(f.Networks))
	}
	// Extra networks past the expected population are rejected.
	if m.Match(f.Networks[0].Info) {
		t.Fatal("a network past the expected population should not match")
	}

	// A different seed's layout diverges at the first network, so a
	// streaming loader can abort immediately.
	other := Quick(24)
	m2, err := NewTopologyMatcher(other)
	if err != nil {
		t.Fatal(err)
	}
	if m2.Match(f.Networks[0].Info) {
		t.Fatal("seed-23 layout should not match seed-24 expectations")
	}

	// A truncated fleet matches every network but is not Done.
	m3, err := NewTopologyMatcher(opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, nd := range f.Networks[:len(f.Networks)-1] {
		if !m3.Match(nd.Info) {
			t.Fatal("prefix should match")
		}
	}
	if m3.Done() {
		t.Fatal("a truncated fleet must not report Done")
	}
}
