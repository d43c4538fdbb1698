// Package synth orchestrates end-to-end generation of a synthetic Meraki
// fleet dataset: topology synthesis, channel construction, probe
// collection, and client simulation, all from one root seed. It is the
// substitution for the thesis's unavailable production data (§3); see the
// meshlab package docs for the substitution rationale.
package synth

import (
	"fmt"
	"math"
	"sync"
	"sync/atomic"

	"meshlab/internal/clients"
	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/mesh"
	"meshlab/internal/phy"
	"meshlab/internal/probe"
	"meshlab/internal/radio"
	"meshlab/internal/rng"
	"meshlab/internal/topology"
)

// Options configures dataset synthesis. Zero-valued sub-configs take their
// packages' thesis defaults.
type Options struct {
	// Seed is the root seed; everything derives from it.
	Seed uint64
	// Fleet shapes the network population.
	Fleet topology.FleetConfig
	// Probe controls the probe collection run.
	Probe probe.Config
	// Clients controls client simulation.
	Clients clients.Config
	// RadioParams optionally overrides the per-link radio parameters
	// (used by the ablation experiments); nil means environment
	// defaults.
	RadioParams func(outdoor bool) radio.Params
	// SkipClients disables client simulation (probe-only datasets).
	SkipClients bool
	// Workers bounds the synthesis worker pool: networks fan out across
	// it because every network draws from its own seed-derived rng split.
	// It also bounds how many networks Generator.Run holds at once. 0
	// means the process worker budget (conc.Budget), 1 synthesizes one
	// network at a time. The output is byte-identical at any value.
	Workers int
}

// Reference returns the full thesis-scale configuration: the 110-network
// fleet, a 24-hour probe snapshot reported every 20 minutes (the thesis
// reports every 5; a 20-minute cadence keeps the dataset in memory without
// changing any distributional result, since probe sets are exchangeable
// within a link), and an 11-hour client snapshot.
func Reference(seed uint64) Options {
	return Options{
		Seed:  seed,
		Fleet: topology.DefaultFleetConfig(),
		Probe: probe.Config{Duration: 86400, ReportInterval: 1200},
	}
}

// Quick returns a small configuration for tests and examples: 12 networks,
// a 4-hour probe snapshot at the real 5-minute cadence, full-length client
// snapshot.
func Quick(seed uint64) Options {
	return Options{
		Seed: seed,
		Fleet: topology.FleetConfig{
			NumNetworks: 12, NumIndoor: 7, NumOutdoor: 3, NumMixed: 2,
			NumN: 3, NumBoth: 1, MinSize: 5, MaxSize: 24,
			SizeLogMean: 1.9, SizeLogStd: 0.5,
		},
		Probe: probe.Config{Duration: 4 * 3600, ReportInterval: 300},
	}
}

// Meta returns the dataset metadata Generate stamps on a fleet built from
// these options, with package defaults applied (via the sub-configs' own
// Normalized, so the default constants live in one place). Cache layers
// compare it against a stored fleet's Meta to decide whether the file can
// stand in for a fresh synthesis run.
func (o Options) Meta() dataset.Meta {
	p := o.Probe.Normalized()
	c := o.Clients.Normalized()
	return dataset.Meta{
		Seed:           o.Seed,
		ProbeDuration:  int32(p.Duration),
		ProbeInterval:  int32(p.ReportInterval),
		ClientDuration: int32(c.Duration),
	}
}

// CacheValidatable reports whether a stored dataset can be fully checked
// against o. A cache file records the seed, durations, cadence, client
// presence, and (via MatchesTopology) the fleet topology — but not the
// probe aggregation depth, the client-mixture tuning, or a RadioParams
// override, so options setting any of those beyond their defaults must
// bypass dataset caches rather than risk a false hit.
func (o Options) CacheValidatable() bool {
	if o.RadioParams != nil {
		return false
	}
	// Keeping only the fields the cache records and re-applying defaults
	// must reproduce the effective config; otherwise an unrecorded field
	// was set.
	if o.Probe.Normalized() != (probe.Config{Duration: o.Probe.Duration, ReportInterval: o.Probe.ReportInterval}).Normalized() {
		return false
	}
	if o.Clients.Normalized() != (clients.Config{Duration: o.Clients.Duration}).Normalized() {
		return false
	}
	// Meta stores durations as whole int32 seconds, so fractional or
	// out-of-range values would collide with other durations stamping
	// the same truncated Meta (e.g. a 300.9 s cadence stamps the same
	// Meta as the default 300 s) and validate a cache they did not
	// produce.
	p := o.Probe.Normalized()
	c := o.Clients.Normalized()
	for _, d := range []float64{p.Duration, p.ReportInterval, c.Duration} {
		if d != math.Trunc(d) || d < 0 || d > math.MaxInt32 {
			return false
		}
	}
	return true
}

// MatchesTopology reports whether f's network population is exactly what
// Generate would produce for opts: the same network datasets in fleet
// order, each matching on name, band, environment, spacing, and AP
// layout. Topology synthesis is layout-only and cheap, so combining this
// with a Meta comparison validates a cached dataset against the full
// fleet configuration — not just the seed and durations — without paying
// for probe or client simulation.
func MatchesTopology(f *dataset.Fleet, opts Options) bool {
	m, err := NewTopologyMatcher(opts)
	if err != nil {
		return false
	}
	for _, nd := range f.Networks {
		if !m.Match(nd.Info) {
			return false
		}
	}
	return m.Done()
}

// TopologyMatcher is the incremental form of MatchesTopology: the
// expected layout is derived once, then stored networks are checked one
// at a time in fleet order. Streaming cache loaders (see
// meshlab.LoadOrGenerateFleet) use it to reject a mismatched dataset at
// the first divergent network instead of decoding the whole file first.
type TopologyMatcher struct {
	expect []expectedNet
	idx    int
}

// expectedNet is one (network topology, band) dataset Generate would emit.
type expectedNet struct {
	topo *topology.Network
	band string
}

// NewTopologyMatcher derives the layout-only fleet topology for opts.
func NewTopologyMatcher(opts Options) (*TopologyMatcher, error) {
	g, err := NewGenerator(opts)
	if err != nil {
		return nil, err
	}
	m := &TopologyMatcher{}
	for _, topo := range g.topo {
		for _, bandName := range topo.Bands {
			m.expect = append(m.expect, expectedNet{topo: topo, band: bandName})
		}
	}
	return m, nil
}

// Match checks the next stored network against the expectation and
// advances on success. A network past the expected population (or out of
// order) reports false and does not advance.
func (m *TopologyMatcher) Match(info dataset.NetworkInfo) bool {
	if m.idx >= len(m.expect) {
		return false
	}
	e := m.expect[m.idx]
	topo := e.topo
	if info.Name != topo.Name || info.Band != e.band ||
		info.Env != topo.Env.String() || info.Spacing != topo.Spacing ||
		len(info.APs) != len(topo.APs) {
		return false
	}
	for a, ap := range topo.APs {
		got := info.APs[a]
		if got.Name != ap.Name || got.X != ap.X || got.Y != ap.Y || got.Outdoor != ap.Outdoor {
			return false
		}
	}
	m.idx++
	return true
}

// Done reports whether every expected network dataset has been matched.
func (m *TopologyMatcher) Done() bool { return m.idx == len(m.expect) }

// Network is one topology network's synthesized data, as Generator.Run
// emits it.
type Network struct {
	// Datasets holds the network's probe data, one dataset per band, in
	// band order.
	Datasets []*dataset.NetworkData
	// Clients is the network's client log; nil when clients are skipped.
	Clients *dataset.ClientData
}

// Generator synthesizes a fleet one network at a time. Every network
// derives from an independent rng split of the root seed, so networks
// are synthesized across a worker pool (Options.Workers) and emitted in
// fleet order: the emitted data is byte-identical at any worker count.
type Generator struct {
	opts    Options
	root    *rng.Stream
	topo    []*topology.Network
	pending atomic.Int64
	maxPend atomic.Int64
}

// NewGenerator derives the fleet topology for opts. It is cheap —
// layout only — so a caller can size its output (NumDatasets) before
// paying for synthesis.
func NewGenerator(opts Options) (*Generator, error) {
	root := rng.New(opts.Seed)
	fleetTopo, err := topology.GenerateFleet(root.Split("topology"), opts.Fleet)
	if err != nil {
		return nil, fmt.Errorf("synth: fleet topology: %w", err)
	}
	return &Generator{opts: opts, root: root, topo: fleetTopo.Networks}, nil
}

// Meta returns the metadata of the generated dataset.
func (g *Generator) Meta() dataset.Meta { return g.opts.Meta() }

// NumDatasets returns how many network datasets Run emits in total: one
// per network and band.
func (g *Generator) NumDatasets() int {
	n := 0
	for _, topo := range g.topo {
		n += len(topo.Bands)
	}
	return n
}

// hold counts the networks Run holds, from the start of a network's
// synthesis to the return of its emit, and keeps the high-water mark.
func (g *Generator) hold(d int64) {
	p := g.pending.Add(d)
	for m := g.maxPend.Load(); p > m && !g.maxPend.CompareAndSwap(m, p); m = g.maxPend.Load() {
	}
}

// Run synthesizes every network and calls emit with each, in fleet
// order, on the calling goroutine. With W workers it holds at most W
// networks that are synthesized or in synthesis but not yet emitted:
// a worker takes a slot before it starts a network, and the slot frees
// when that network's emit returns. A synthesis error (the lowest
// failing network's) or an emit error stops the feed; Run returns it
// once every goroutine it started has exited.
func (g *Generator) Run(emit func(Network) error) error {
	n := len(g.topo)
	workers := max(1, min(conc.Workers(g.opts.Workers), n))
	slots := make(chan struct{}, workers)
	results := make([]chan netResult, n)
	for i := range results {
		results[i] = make(chan netResult, 1)
	}
	stop := make(chan struct{})
	var next atomic.Int64
	var wg sync.WaitGroup
	for range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case slots <- struct{}{}:
				case <-stop:
					return
				}
				select {
				case <-stop: // both were ready; do not start another network
					return
				default:
				}
				i := int(next.Add(1)) - 1
				if i >= n {
					<-slots
					return
				}
				g.hold(1)
				results[i] <- g.build(i)
			}
		}()
	}
	defer func() {
		close(stop)
		wg.Wait()
	}()
	// Indices are claimed in order, so the next network to emit is
	// always claimed or claimable: every network before it has emitted
	// and freed its slot.
	for i := range n {
		res := <-results[i]
		if res.err != nil {
			return res.err
		}
		err := emit(res.Network)
		g.hold(-1)
		<-slots
		if err != nil {
			return err
		}
	}
	return nil
}

// netResult is one network's synthesized data or its synthesis error.
type netResult struct {
	Network
	err error
}

// Generate builds the full synthetic dataset for opts in memory: a
// Generator run collected in fleet order. Writers that only need the
// dataset on disk stream it instead (meshlab.GenerateDataset).
func Generate(opts Options) (*dataset.Fleet, error) {
	g, err := NewGenerator(opts)
	if err != nil {
		return nil, err
	}
	out := &dataset.Fleet{Meta: g.Meta()}
	err = g.Run(func(nw Network) error {
		out.Networks = append(out.Networks, nw.Datasets...)
		if nw.Clients != nil {
			out.Clients = append(out.Clients, nw.Clients)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// build synthesizes network i's probe and client data. It only reads
// the root's immutable split identity, so concurrent calls are safe.
func (g *Generator) build(i int) netResult {
	var res netResult
	topo, opts := g.topo[i], g.opts
	for _, bandName := range topo.Bands {
		band, err := phy.BandByName(bandName)
		if err != nil {
			res.err = fmt.Errorf("synth: network %s: %w", topo.Name, err)
			return res
		}
		key := fmt.Sprintf("net%d/%s", i, bandName)
		net := mesh.Build(g.root.Split("mesh/"+key), topo, band, mesh.BuildOptions{
			ParamsFor: opts.RadioParams,
		})
		nd := probe.Collect(g.root.Split("probe/"+key), net, opts.Probe)
		res.Datasets = append(res.Datasets, nd)
	}
	if !opts.SkipClients {
		res.Clients = clients.Simulate(g.root.SplitN("clients", i), topo, opts.Clients)
	}
	return res
}
