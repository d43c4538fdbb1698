package meshlab

// Tests for the fault-tolerant sharded streaming suite: the
// shard-vs-whole byte-identical oracle at several shard counts and
// worker budgets, the transient-retry path under deterministic fault
// injection, and corrupt-shard quarantine with a degraded-mode manifest.
// The fault-injection tests double as the CI guardrail's smoke
// (run with -race by .github/workflows/guardrail.yml).

import (
	"bufio"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshlab/internal/dataset"
	"meshlab/internal/faultfs"
	"meshlab/internal/probe"
	"meshlab/internal/shard"
	"meshlab/internal/topology"
	"meshlab/internal/wire"
)

// fastRetry keeps backoff sleeps out of the test budget.
const fastRetry = time.Millisecond

// saveShardFixture writes a quick fleet twice: with and without the
// flat-sample section.
func saveShardFixture(t *testing.T, seed uint64) (fleet *Fleet, sampled, plain string) {
	t.Helper()
	fleet, err := GenerateFleet(QuickOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	sampled = filepath.Join(dir, "sampled.bin")
	if err := SaveFleetWithSamples(sampled, fleet); err != nil {
		t.Fatal(err)
	}
	plain = filepath.Join(dir, "plain.bin")
	if err := SaveFleet(plain, fleet); err != nil {
		t.Fatal(err)
	}
	return fleet, sampled, plain
}

// TestShardedStreamMatchesStreamFleet is the shard-vs-whole oracle: at
// any shard count and worker budget, over files with and without the
// flat-sample section, the merged sharded run must emit results
// byte-identical to the single-pass streaming suite.
func TestShardedStreamMatchesStreamFleet(t *testing.T) {
	fleet, sampled, plain := saveShardFixture(t, 51)
	for _, path := range []string{sampled, plain} {
		want, wantSum, err := StreamFleet(path, StreamOptions{Workers: 2})
		if err != nil {
			t.Fatal(err)
		}
		// One shard per network folds single-network partials with Merge,
		// the fold the streaming collector applies per network.
		for _, shards := range []int{1, 3, 5, len(fleet.Networks)} {
			for _, workers := range []int{1, 4} {
				res, err := ShardedStream(context.Background(), path, ShardOptions{
					Shards: shards, Workers: workers, MaxRetries: 0,
				})
				if err != nil {
					t.Fatalf("%s shards=%d workers=%d: %v", path, shards, workers, err)
				}
				if len(res.Results) != len(want) {
					t.Fatalf("%d results vs %d", len(res.Results), len(want))
				}
				for i := range want {
					if g, w := res.Results[i].Format(), want[i].Format(); g != w {
						t.Fatalf("%s shards=%d workers=%d: %s diverged:\n--- sharded ---\n%s\n--- whole ---\n%s",
							path, shards, workers, want[i].ID, g, w)
					}
				}
				if res.Manifest.Degraded || len(res.Manifest.Skipped) != 0 {
					t.Fatalf("healthy run reported degraded: %s", res.Manifest.Format())
				}
				if res.Networks != len(fleet.Networks) || len(res.Manifest.Observed) != len(fleet.Networks) {
					t.Fatalf("observed %d/%d networks of %d", res.Networks, len(res.Manifest.Observed), len(fleet.Networks))
				}
				if res.NetworksBG != wantSum.NetworksBG || res.NetworksN != wantSum.NetworksN || res.ProbeSets != wantSum.ProbeSets {
					t.Fatalf("tallies %d/%d/%d vs whole-run %d/%d/%d",
						res.NetworksBG, res.NetworksN, res.ProbeSets,
						wantSum.NetworksBG, wantSum.NetworksN, wantSum.ProbeSets)
				}
				if res.FlatSamples != wantSum.FlatSamples {
					t.Fatalf("FlatSamples %v vs %v", res.FlatSamples, wantSum.FlatSamples)
				}
			}
		}
	}
}

// TestShardedStreamSplitDualBandNetwork pins the regression where a
// shard boundary falls between a dual-band network's adjacent bg and n
// dataset entries: with bare-name sample filtering both shards claimed
// both of the network's sample groups and double-counted them. The
// fleet is all dual-band (10 entries from 5 networks), so 3 shards
// split at entry 3 — inside the pair of network 1 — deterministically.
func TestShardedStreamSplitDualBandNetwork(t *testing.T) {
	opts := Options{
		Seed: 17,
		Fleet: topology.FleetConfig{
			NumNetworks: 5, NumIndoor: 5,
			NumN: 5, NumBoth: 5,
			MinSize: 3, MaxSize: 8, SizeLogMean: 1.2, SizeLogStd: 0.4,
		},
		Probe: probe.Config{Duration: 900, ReportInterval: 300},
	}
	fleet, err := GenerateFleet(opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet.Networks) != 10 {
		t.Fatalf("fixture holds %d dataset entries, want 10", len(fleet.Networks))
	}
	path := filepath.Join(t.TempDir(), "both.bin")
	if err := SaveFleetWithSamples(path, fleet); err != nil {
		t.Fatal(err)
	}
	want, _, err := StreamFleet(path, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ShardedStream(context.Background(), path, ShardOptions{Shards: 3, Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if g, w := res.Results[i].Format(), want[i].Format(); g != w {
			t.Fatalf("%s diverged across a split dual-band pair:\n--- sharded ---\n%s\n--- whole ---\n%s",
				want[i].ID, g, w)
		}
	}
}

// splitFleetDir writes a quick fleet as parts contiguous per-shard
// files under a fresh directory, plus one whole-file baseline carrying
// the same networks in the same order and the same client-section
// order (each client dataset travels with its network's chunk, so the
// concatenation in file order is exactly the baseline's section).
func splitFleetDir(t *testing.T, seed uint64, parts int) (shardDir, wholePath string, networks int) {
	t.Helper()
	fleet, err := GenerateFleet(QuickOptions(seed))
	if err != nil {
		t.Fatal(err)
	}
	n := len(fleet.Networks)
	if n < parts {
		t.Fatalf("fixture too small: %d networks for %d parts", n, parts)
	}
	dir := t.TempDir()
	shardDir = filepath.Join(dir, "shards")
	if err := os.Mkdir(shardDir, 0o755); err != nil {
		t.Fatal(err)
	}
	chunkOf := map[string]int{}
	var whole Fleet
	whole.Meta = fleet.Meta
	for p := 0; p < parts; p++ {
		sub := &Fleet{Meta: fleet.Meta, Networks: fleet.Networks[p*n/parts : (p+1)*n/parts]}
		for _, nd := range sub.Networks {
			chunkOf[nd.Info.Name] = p
		}
		whole.Networks = append(whole.Networks, sub.Networks...)
		for _, cd := range fleet.Clients {
			if chunkOf[cd.Network] == p {
				sub.Clients = append(sub.Clients, cd)
				whole.Clients = append(whole.Clients, cd)
			}
		}
		if err := SaveFleetWithSamples(filepath.Join(shardDir, fmt.Sprintf("part-%02d.bin", p)), sub); err != nil {
			t.Fatal(err)
		}
	}
	wholePath = filepath.Join(dir, "whole.bin")
	if err := SaveFleetWithSamples(wholePath, &whole); err != nil {
		t.Fatal(err)
	}
	return shardDir, wholePath, n
}

// TestShardedStreamDirectory: a directory of per-shard files merges —
// in file-name order — into results byte-identical to one whole file
// carrying the same networks and the same client-section order.
func TestShardedStreamDirectory(t *testing.T) {
	const parts = 3
	shardDir, wholePath, n := splitFleetDir(t, 52, parts)
	want, _, err := StreamFleet(wholePath, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	res, err := ShardedStream(context.Background(), shardDir, ShardOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	for i := range want {
		if res.Results[i].Format() != want[i].Format() {
			t.Fatalf("%s diverges between the shard directory and the whole file", want[i].ID)
		}
	}
	if len(res.Manifest.Shards) != parts || res.Networks != n {
		t.Fatalf("manifest: %d shards, %d networks", len(res.Manifest.Shards), res.Networks)
	}
}

// TestShardedStreamRetriesTransients: transient I/O faults must be
// retried past on fresh handles, and the final results must stay
// byte-identical to the fault-free run. Directory mode pins every read
// — including each shard's plan scan — inside a shard attempt, so the
// injected failures are charged to shard retries, not to the shared
// single-file plan pass.
func TestShardedStreamRetriesTransients(t *testing.T) {
	const parts = 3
	shardDir, wholePath, _ := splitFleetDir(t, 53, parts)
	want, _, err := StreamFleet(wholePath, StreamOptions{Workers: 2})
	if err != nil {
		t.Fatal(err)
	}
	// Offset 16 sits in every part file's meta block, so whichever shard
	// reads next absorbs the fault; two firings cost two attempts total.
	inj := faultfs.New(faultfs.Fault{Kind: faultfs.Transient, Offset: 16, Count: 2})
	res, err := ShardedStream(context.Background(), shardDir, ShardOptions{
		Workers: 2, MaxRetries: 3, RetryBase: fastRetry,
		Open: inj.WrapOpen(func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }),
	})
	if err != nil {
		t.Fatalf("transients within budget must not fail the run: %v", err)
	}
	if got := inj.Fired(0); got != 2 {
		t.Fatalf("injected transient fired %d times, want 2", got)
	}
	retried, attempts := 0, 0
	for _, r := range res.Manifest.Shards {
		attempts += r.Attempts
		if r.Attempts > 1 {
			retried++
		}
		if r.State != shard.OK {
			t.Fatalf("shard %d ended %s: %v", r.Index, r.State, r.Err)
		}
	}
	if retried == 0 {
		t.Fatal("no shard reported a retry despite two injected transients")
	}
	if attempts != parts+2 {
		t.Fatalf("%d total attempts across %d shards, want %d", attempts, parts, parts+2)
	}
	for i := range want {
		if res.Results[i].Format() != want[i].Format() {
			t.Fatalf("%s diverges after transient retries", want[i].ID)
		}
	}
}

// TestShardedStreamExhaustsTransients: a fault that outlives the retry
// budget fails the run with ErrExhausted (exit code 4), never silently.
func TestShardedStreamExhaustsTransients(t *testing.T) {
	_, sampled, _ := saveShardFixture(t, 53)
	plan := buildPlan(t, sampled)
	inj := faultfs.New(faultfs.Fault{
		Kind: faultfs.Transient, Offset: plan.SamplesOffset + 16, Count: 1 << 20,
	})
	_, err := ShardedStream(context.Background(), sampled, ShardOptions{
		Shards: 2, Workers: 2, MaxRetries: 1, RetryBase: fastRetry,
		Open: inj.WrapOpen(func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }),
	})
	if !errors.Is(err, shard.ErrExhausted) {
		t.Fatalf("got %v, want ErrExhausted", err)
	}
	if code := ShardExitCode(err); code != 4 {
		t.Fatalf("exit code %d, want 4", code)
	}
	if !errors.Is(err, faultfs.ErrTransient) {
		t.Fatalf("root cause lost from the chain: %v", err)
	}
}

// TestShardedStreamQuarantinesCorrupt: a corrupt byte confined to one
// shard's sample rows quarantines exactly that shard. Without
// -allow-partial the run fails as corrupt input (exit code 3); with it,
// the run completes degraded and the manifest names the skipped network
// and the root-cause chain.
func TestShardedStreamQuarantinesCorrupt(t *testing.T) {
	_, sampled, _ := saveShardFixture(t, 54)
	net, poptOff := firstSampleRowPopt(t, sampled)
	// XOR 0x80 drives the row's optimal-rate index far out of range: a
	// validation failure only the owning shard's decode can hit.
	inj := faultfs.New(faultfs.Fault{Kind: faultfs.Corrupt, Offset: poptOff, XOR: 0x80})
	open := inj.WrapOpen(func(p string) (io.ReadSeekCloser, error) { return os.Open(p) })

	strict := ShardOptions{Shards: 3, Workers: 2, MaxRetries: 2, RetryBase: fastRetry, Open: open}
	_, err := ShardedStream(context.Background(), sampled, strict)
	if !errors.Is(err, shard.ErrCorruptShard) {
		t.Fatalf("got %v, want ErrCorruptShard", err)
	}
	if code := ShardExitCode(err); code != 3 {
		t.Fatalf("exit code %d, want 3", code)
	}

	partial := strict
	partial.AllowPartial = true
	res, err := ShardedStream(context.Background(), sampled, partial)
	if err != nil {
		t.Fatalf("-allow-partial should degrade, not fail: %v", err)
	}
	m := res.Manifest
	if !m.Degraded {
		t.Fatal("manifest not marked degraded")
	}
	skipped := false
	for _, name := range m.Skipped {
		if name == net {
			skipped = true
		}
	}
	if !skipped {
		t.Fatalf("corrupted network %s missing from skipped list %v", net, m.Skipped)
	}
	quarantined := 0
	for _, r := range m.Shards {
		if r.State != shard.Quarantined {
			continue
		}
		quarantined++
		if r.Attempts != 1 {
			t.Fatalf("corruption was retried (%d attempts)", r.Attempts)
		}
		if !wire.IsCorrupt(r.Err) {
			t.Fatalf("quarantine cause not classified corrupt: %v", r.Err)
		}
		var werr *wire.Error
		if !errors.As(r.Err, &werr) || werr.Section != "flat-sample" {
			t.Fatalf("quarantine cause lacks wire context: %v", r.Err)
		}
	}
	if quarantined != 1 {
		t.Fatalf("%d shards quarantined, want exactly 1:\n%s", quarantined, m.Format())
	}
	if got := m.Format(); got == "" {
		t.Fatal("empty manifest rendering")
	}
	if len(res.Results) == 0 {
		t.Fatal("degraded run produced no results")
	}
}

// buildPlan indexes a binary fleet file for the tests that need byte
// offsets.
func buildPlan(t *testing.T, path string) *wire.Plan {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	plan, err := wire.BuildPlan(f)
	if err != nil {
		t.Fatal(err)
	}
	return plan
}

// firstSampleRowPopt locates the absolute offset of the optimal-rate
// byte in the first non-empty sample group's first row, plus the name of
// the network that owns it — the corruption target that stays invisible
// to planning and to every other shard.
func firstSampleRowPopt(t *testing.T, path string) (net string, off int64) {
	t.Helper()
	plan := buildPlan(t, path)
	if plan.SamplesOffset == 0 {
		t.Fatal("fixture has no flat-sample section")
	}
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Seek(plan.SamplesOffset, io.SeekStart); err != nil {
		t.Fatal(err)
	}
	br := bufio.NewReader(f)
	pos := plan.SamplesOffset
	read := func(n int) []byte {
		b := make([]byte, n)
		if _, err := io.ReadFull(br, b); err != nil {
			t.Fatal(err)
		}
		pos += int64(n)
		return b
	}
	read(8) // section length
	nBands := int(read(1)[0])
	for b := 0; b < nBands; b++ {
		read(1) // band code
		nr := int(read(1)[0])
		nGroups := int(binary.LittleEndian.Uint32(read(4)))
		rowLen := int64(2 + 2 + 4 + 2 + 1 + 8 + nr*8)
		for g := 0; g < nGroups; g++ {
			nameLen := int(binary.LittleEndian.Uint16(read(2)))
			name := string(read(nameLen))
			count := int64(binary.LittleEndian.Uint32(read(4)))
			if count > 0 {
				return name, pos + 10 // from(2) to(2) t(4) snr(2) → popt
			}
			if _, err := br.Discard(int(count * rowLen)); err != nil {
				t.Fatal(err)
			}
			pos += count * rowLen
		}
	}
	t.Fatal("no non-empty sample group in fixture")
	return "", 0
}

// TestShardedStreamCancellation: a canceled context aborts the run
// between retry attempts instead of burning the backoff schedule.
func TestShardedStreamCancellation(t *testing.T) {
	_, sampled, _ := saveShardFixture(t, 53)
	plan := buildPlan(t, sampled)
	inj := faultfs.New(faultfs.Fault{
		Kind: faultfs.Transient, Offset: plan.SamplesOffset + 16, Count: 1 << 20,
	})
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, err := ShardedStream(ctx, sampled, ShardOptions{
		Shards: 2, MaxRetries: 1 << 10, RetryBase: time.Hour,
		Open: inj.WrapOpen(func(p string) (io.ReadSeekCloser, error) { return os.Open(p) }),
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("got %v, want context.Canceled", err)
	}
}

// TestShardedStreamEmptyNetworks guards the degenerate shard math: a
// clientless, networkless file survives sharding (no zero shard count,
// no out-of-range resume) and fails finalize the same way the
// single-pass suite does — as an empty-data error, not as corrupt input
// or an exhausted retry budget.
func TestShardedStreamEmptyNetworks(t *testing.T) {
	empty := &Fleet{Meta: dataset.Meta{Seed: 1, ProbeDuration: 600, ProbeInterval: 300, ClientDuration: 900}}
	path := filepath.Join(t.TempDir(), "empty.bin")
	if err := SaveFleetWithSamples(path, empty); err != nil {
		t.Fatal(err)
	}
	_, _, wantErr := StreamFleet(path, StreamOptions{})
	if wantErr == nil {
		t.Fatal("expected the empty fleet to fail finalize in the single-pass suite")
	}
	_, err := ShardedStream(context.Background(), path, ShardOptions{Shards: 4})
	if err == nil {
		t.Fatal("sharded run of an empty fleet should fail finalize like the single-pass suite")
	}
	if errors.Is(err, shard.ErrCorruptShard) || errors.Is(err, shard.ErrExhausted) {
		t.Fatalf("empty data misclassified: %v", err)
	}
	if code := ShardExitCode(err); code != 1 {
		t.Fatalf("exit code %d for an empty-data failure, want 1", code)
	}
	if err.Error() != wantErr.Error() {
		t.Fatalf("sharded failure %q differs from single-pass %q", err, wantErr)
	}
}
