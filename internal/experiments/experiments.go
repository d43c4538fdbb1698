// Package experiments maps every table and figure of the thesis's
// evaluation to a runner that regenerates it from a synthetic fleet
// dataset. Each runner returns a Result: a titled table of rows plus
// headline notes, which cmd/meshreport renders into the EXPERIMENTS.md
// report (a generated artifact, not checked in) and the root bench
// harness exercises.
package experiments

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"meshlab/internal/routing"
	"meshlab/internal/snr"
)

// Result is one regenerated table or figure.
type Result struct {
	// ID is the experiment identifier ("fig4.2", "tab4.1", "sec6.3").
	ID string
	// Title describes the paper artifact.
	Title string
	// Header and Rows form the regenerated table.
	Header []string
	Rows   [][]string
	// Notes carries headline scalars and shape checks in prose.
	Notes []string
	// Plot is an ASCII rendering of the figure's primary CDF, for the
	// figures where a terminal CDF is meaningful; empty otherwise. Format
	// does not include it.
	Plot string
}

// clone returns a deep copy of the result.
func (r *Result) clone() *Result {
	c := *r
	c.Header = slices.Clone(r.Header)
	c.Rows = make([][]string, len(r.Rows))
	for i, row := range r.Rows {
		c.Rows[i] = slices.Clone(row)
	}
	c.Notes = slices.Clone(r.Notes)
	return &c
}

// Format renders the result as aligned plain text. Rows may carry more
// cells than the header; the extra cells render unpadded.
func (r *Result) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "== %s: %s ==\n", r.ID, r.Title)
	widths := make([]int, len(r.Header))
	for i, h := range r.Header {
		widths[i] = len(h)
	}
	for _, row := range r.Rows {
		for i, c := range row {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				b.WriteString("  ")
			}
			if i < len(widths) {
				fmt.Fprintf(&b, "%-*s", widths[i], c)
			} else {
				b.WriteString(c)
			}
		}
		b.WriteString("\n")
	}
	line(r.Header)
	for _, row := range r.Rows {
		line(row)
	}
	for _, n := range r.Notes {
		fmt.Fprintf(&b, "note: %s\n", n)
	}
	return b.String()
}

// accumulator is the streaming decomposition of one experiment: state
// that grows as data arrives, a merge that folds another accumulator of
// the same experiment into it, and a finalize that renders the Result
// from the accumulated state plus the run's fleet-wide state (client
// data, the §7 mobility analysis). StreamContext is the one executor of
// accumulators, whether its networks come from a dataset file, a shard,
// or an in-memory fleet.
//
// merge(other) must leave the receiver as if it had seen its own data
// followed by other's. The streaming collector folds one-network partials
// with it in fleet order, and the shard runner folds whole shards in
// shard order (merge.go argues why both are exact). merge and finalize
// are never called concurrently on one accumulator.
type accumulator interface {
	merge(other accumulator) error
	finalize(sc *StreamContext) (*Result, error)
}

// netObserver is implemented by the accumulators that read networks. The
// engine calls observe only on a fresh accumulator from the experiment's
// newAcc, once, on a pipeline worker: the receiver becomes that network's
// partial, which the collector then merges into the run's accumulator in
// fleet order. observe may therefore do all of its per-network work —
// routing, censuses, simulations — and append freely; it shares nothing
// with other networks' measurements except through its own partial.
type netObserver interface {
	observe(nv *NetView) error
}

// sampleObserver is implemented by the §4 accumulators, which consume the
// flattened samples as per-network groups (exactly the unit the wire
// format's flat-sample section stores) instead of one materialized slice.
// A StreamContext feeds them straight off the walk or the file section,
// so a run's peak memory is the accumulators' count/histogram tables,
// not the 90%-of-derived-data sample set.
//
// Groups arrive in fleet order within each band; each call carries all
// samples of one network. Band interleaving differs between sources (a
// file section stores bands contiguously, a walk interleaves them) —
// accumulators must keep per-band state independent, which every §4
// table does naturally.
//
// A group arrives as a GroupView, built once per group by the feeding
// goroutine and shared by every accumulator, so the instance orders the
// chunked cores walk are sorted once per group, not once per core.
type sampleObserver interface {
	observeSampleGroup(band string, v *snr.GroupView) error
}

// replayReader is implemented by the experiments that render the shared
// online-strategy replay (fig4.6, tab4.1). The StreamContext runs one
// replay, feeds it as a sample observer of its own, and hands it to each.
type replayReader interface {
	shareReplay(*strategyReplay)
}

// sharedOnly adapts an experiment that consumes no per-network data —
// §7 client mobility, ablations over their own fleets — to the
// accumulator interface. The walk skips these entirely.
type sharedOnly struct {
	run func(*StreamContext) (*Result, error)
}

func (s sharedOnly) finalize(sc *StreamContext) (*Result, error) { return s.run(sc) }

// runner executes one experiment: a fresh accumulator per run.
type runner struct {
	id     string
	title  string
	newAcc func() accumulator
	// sampleOnly marks experiments that need nothing beyond the §4
	// samples, the population meshanalyze's sample-streaming mode can run.
	sampleOnly bool
}

var (
	registry []runner
	// byID indexes the registry for O(1) lookup. It is built
	// incrementally by register, which only runs from package init.
	byID = make(map[string]int)
)

func register(id, title string, newAcc func() accumulator) {
	byID[id] = len(registry)
	registry = append(registry, runner{id: id, title: title, newAcc: newAcc})
}

// registerShared wires an experiment that only consumes fleet-wide state
// (no per-network walk).
func registerShared(id, title string, run func(*StreamContext) (*Result, error)) {
	register(id, title, func() accumulator { return sharedOnly{run: run} })
}

// registerSamples wires a §4 accumulator: an experiment whose only input
// is the flattened samples, consumed as per-network groups
// (sampleObserver), and therefore runnable by the chunked
// sample-streaming mode at table-sized memory.
func registerSamples(id, title string, newAcc func() accumulator) {
	register(id, title, newAcc)
	registry[len(registry)-1].sampleOnly = true
}

// unknownExperiment is the error for an ID outside the registry.
func unknownExperiment(id string) error {
	return fmt.Errorf("experiments: unknown experiment %q (known: %s)", id, strings.Join(IDs(), ", "))
}

// SampleOnly reports whether the experiment consumes only the flattened
// §4 samples, i.e. whether it can run from a dataset file's sample
// section without any fleet (see meshanalyze's -sec4 mode).
func SampleOnly(id string) bool {
	i, ok := byID[id]
	return ok && registry[i].sampleOnly
}

// SampleIDs returns the sample-only experiment identifiers in paper order.
func SampleIDs() []string {
	var out []string
	for _, id := range IDs() {
		if SampleOnly(id) {
			out = append(out, id)
		}
	}
	return out
}

// paperOrder ranks experiment IDs in the order the thesis presents them,
// with ablations last. Registration order depends on file names, so the
// public ordering is made explicit here.
var paperOrder = []string{
	"fig3.1",
	"fig4.1", "fig4.2", "fig4.3", "fig4.4", "fig4.5", "fig4.6", "tab4.1",
	"fig5.1", "fig5.2", "fig5.3", "fig5.4", "fig5.5",
	"fig6.1", "fig6.2", "sec6.3",
	"fig7.1", "fig7.2", "fig7.3", "fig7.4", "fig7.5",
	"abl4.off", "abl4.burst", "abl5.sym", "abl6.t",
	"ext4.topk", "ext5.ett", "ext6.mac",
}

// rankOf maps each known ID to its paper-order position, replacing the
// seed's linear scan per comparison.
var rankOf = func() map[string]int {
	m := make(map[string]int, len(paperOrder))
	for i, id := range paperOrder {
		m[id] = i
	}
	return m
}()

func rank(id string) int {
	if r, ok := rankOf[id]; ok {
		return r
	}
	return len(paperOrder) // unknown IDs sort after the known set
}

// IDs returns all experiment identifiers in paper order.
func IDs() []string {
	out := make([]string, len(registry))
	for i, r := range registry {
		out[i] = r.id
	}
	sort.SliceStable(out, func(a, b int) bool { return rank(out[a]) < rank(out[b]) })
	return out
}

// impKey identifies one (rate, ETX variant) routing comparison of a
// network.
type impKey struct {
	rate    int
	variant routing.Variant
}

// f formats a float compactly for table cells.
func f(v float64) string { return fmt.Sprintf("%.3g", v) }

// f2 formats with two decimals.
func f2(v float64) string { return fmt.Sprintf("%.2f", v) }

// itoa formats an int.
func itoa(v int) string { return fmt.Sprintf("%d", v) }

// sortedKeys returns sorted integer map keys.
func sortedKeys[V any](m map[int]V) []int {
	keys := make([]int, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Ints(keys)
	return keys
}
