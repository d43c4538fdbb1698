// Package dataset defines the schema of the synthetic Meraki-style
// measurement data (§3 of the thesis) and its persistence format.
//
// Two kinds of data exist, mirroring the thesis:
//
//   - Probe data: for each directed AP→AP link, a time series of probe
//     sets. A probe set aggregates ~20 broadcast probes per bit rate over an
//     800-second sliding window and carries, per rate, the mean loss rate,
//     plus the median reported SNR of the window (§3.1).
//   - Aggregate client data: per-client association history over an 11-hour
//     window, at effectively 5-minute reporting granularity (§3.2).
//
// The on-disk format is JSON lines: a meta record, then one record per
// network, each followed by one per directed link, then one per
// network's client log (Encoder writes that order and Decoder requires
// it). JSON keeps the
// format inspectable; the records use short field names and compact value
// types because fleets contain millions of probe sets.
package dataset

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"

	"meshlab/internal/phy"
)

// Obs is one (bit rate, loss rate) observation within a probe set. The rate
// is an index into the band's rate list to keep the record small.
type Obs struct {
	// RateIdx indexes phy.Band.Rates of the network's band.
	RateIdx uint8 `json:"r"`
	// Loss is the mean fraction of probes lost at this rate in the
	// window, quantized by the probe count (1/20 steps by default).
	Loss float32 `json:"l"`
}

// ProbeSet is the aggregate of one reporting window on one directed link.
type ProbeSet struct {
	// T is seconds since collection start.
	T int32 `json:"t"`
	// SNR is the median reported SNR of the window in integer dB, as an
	// Atheros/MadWiFi radio would log it.
	SNR int16 `json:"s"`
	// SNRStd is the standard deviation of the reported SNR values within
	// the window (Figure 3.1's quantity).
	SNRStd float32 `json:"d"`
	// Obs holds one entry per probed bit rate. It is read-only: within a
	// network, the wire decoder and the probe collector hand every set
	// with bit-identical observations the same row (len == cap, so an
	// append copies), and writing through one set would change all of
	// them.
	Obs []Obs `json:"o"`
}

// Link is the probe-set time series of one directed AP→AP link.
type Link struct {
	// From and To are AP indices within the network.
	From int `json:"f"`
	To   int `json:"to"`
	// Sets is ordered by increasing T.
	Sets []ProbeSet `json:"sets"`
}

// APInfo describes one access point.
type APInfo struct {
	Name    string  `json:"name"`
	X       float64 `json:"x"`
	Y       float64 `json:"y"`
	Outdoor bool    `json:"outdoor,omitempty"`
}

// NetworkInfo is a network's identity and layout.
type NetworkInfo struct {
	// Name identifies the network within the fleet.
	Name string `json:"name"`
	// Band is "bg" or "n". A dual-radio network appears once per band.
	Band string `json:"band"`
	// Env is "indoor", "outdoor", or "mixed".
	Env string `json:"env"`
	// Spacing is the layout's nearest-neighbor scale in meters.
	Spacing float64 `json:"spacing"`
	// APs lists the access points; indices are the AP IDs used in Link.
	APs []APInfo `json:"aps"`
}

// NetworkData is all probe data collected from one network on one band.
type NetworkData struct {
	Info  NetworkInfo
	Links []*Link
}

// NumAPs returns the AP count.
func (nd *NetworkData) NumAPs() int { return len(nd.Info.APs) }

// Band resolves the network's phy.Band.
func (nd *NetworkData) Band() (phy.Band, error) { return phy.BandByName(nd.Info.Band) }

// Assoc is one client↔AP association interval, in seconds since the client
// snapshot start. End is exclusive.
type Assoc struct {
	AP    int32 `json:"ap"`
	Start int32 `json:"s"`
	End   int32 `json:"e"`
}

// Duration returns the association's length in seconds.
func (a Assoc) Duration() float64 { return float64(a.End - a.Start) }

// ClientLog is one client's association history in one network.
type ClientLog struct {
	// ID is unique within the network's client data.
	ID int `json:"id"`
	// Assocs is ordered by Start and non-overlapping.
	Assocs []Assoc `json:"a"`
}

// ClientData is the aggregate client snapshot of one network.
type ClientData struct {
	// Network names the network the clients were observed in.
	Network string `json:"network"`
	// Env is the network's environment class.
	Env string `json:"env"`
	// Duration is the snapshot length in seconds (thesis: 11 h).
	Duration int32 `json:"duration"`
	// NumAPs is the network size, for cross-checks.
	NumAPs int `json:"numAPs"`
	// Clients holds each observed client's history.
	Clients []ClientLog `json:"clients"`
}

// Meta describes how a fleet dataset was generated.
type Meta struct {
	// Seed is the root RNG seed the fleet derives from.
	Seed uint64 `json:"seed"`
	// ProbeDuration and ProbeInterval are the probe collection length
	// and reporting interval in seconds.
	ProbeDuration int32 `json:"probeDuration"`
	ProbeInterval int32 `json:"probeInterval"`
	// ClientDuration is the client snapshot length in seconds.
	ClientDuration int32 `json:"clientDuration"`
}

// Fleet is a full synthetic dataset: probe data and client data for every
// network.
type Fleet struct {
	Meta     Meta
	Networks []*NetworkData
	Clients  []*ClientData
}

// ByBand returns the networks collected on the named band.
func (f *Fleet) ByBand(band string) []*NetworkData {
	var out []*NetworkData
	for _, n := range f.Networks {
		if n.Info.Band == band {
			out = append(out, n)
		}
	}
	return out
}

// NumProbeSets returns the total probe sets across all links and networks.
func (f *Fleet) NumProbeSets() int {
	total := 0
	for _, n := range f.Networks {
		for _, l := range n.Links {
			total += len(l.Sets)
		}
	}
	return total
}

// record is the JSON-lines envelope.
type record struct {
	Kind string `json:"kind"`

	Meta    *Meta        `json:"meta,omitempty"`
	Info    *NetworkInfo `json:"info,omitempty"`
	Net     string       `json:"net,omitempty"`
	Band    string       `json:"band,omitempty"`
	Link    *Link        `json:"link,omitempty"`
	Clients *ClientData  `json:"clients,omitempty"`
}

// Write serializes the fleet as JSON lines, through an Encoder.
func Write(w io.Writer, f *Fleet) error {
	enc := NewEncoder(w, f.Meta)
	for _, n := range f.Networks {
		if err := enc.Network(n); err != nil {
			return err
		}
	}
	for _, c := range f.Clients {
		if err := enc.Clients(c); err != nil {
			return err
		}
	}
	return enc.Close()
}

// Encoder writes the JSON-lines format one network at a time: the meta
// record, each network's record and link records as it arrives, and on
// Close the client records, which the format places after every
// network. It holds the client logs until then, never the probe data.
type Encoder struct {
	bw      *bufio.Writer
	enc     *json.Encoder
	clients []*ClientData
	err     error
}

// NewEncoder starts a JSON-lines dataset on w with its meta record.
func NewEncoder(w io.Writer, meta Meta) *Encoder {
	bw := bufio.NewWriterSize(w, 1<<20)
	e := &Encoder{bw: bw, enc: json.NewEncoder(bw)}
	if err := e.enc.Encode(record{Kind: "meta", Meta: &meta}); err != nil {
		e.err = fmt.Errorf("dataset: write meta: %w", err)
	}
	return e
}

// Network writes one network's record and its link records.
func (e *Encoder) Network(n *NetworkData) error {
	if e.err != nil {
		return e.err
	}
	info := n.Info
	if err := e.enc.Encode(record{Kind: "network", Info: &info}); err != nil {
		e.err = fmt.Errorf("dataset: write network %s: %w", n.Info.Name, err)
		return e.err
	}
	for _, l := range n.Links {
		if err := e.enc.Encode(record{Kind: "link", Net: n.Info.Name, Band: n.Info.Band, Link: l}); err != nil {
			e.err = fmt.Errorf("dataset: write link %s %d->%d: %w", n.Info.Name, l.From, l.To, err)
			return e.err
		}
	}
	return nil
}

// Clients queues one network's client log for Close.
func (e *Encoder) Clients(c *ClientData) error {
	e.clients = append(e.clients, c)
	return e.err
}

// Close writes the queued client records and flushes.
func (e *Encoder) Close() error {
	if e.err != nil {
		return e.err
	}
	for _, c := range e.clients {
		if err := e.enc.Encode(record{Kind: "clients", Clients: c}); err != nil {
			e.err = fmt.Errorf("dataset: write clients %s: %w", c.Network, err)
			return e.err
		}
	}
	e.clients = nil
	e.err = e.bw.Flush()
	return e.err
}

// Read parses a fleet from the JSON-lines format produced by Write,
// through a Decoder.
func Read(r io.Reader) (*Fleet, error) {
	d, err := NewDecoder(r)
	if err != nil {
		return nil, err
	}
	f := &Fleet{Meta: d.Meta()}
	for {
		n, err := d.Network()
		if err == io.EOF {
			break
		}
		if err != nil {
			return nil, err
		}
		f.Networks = append(f.Networks, n)
	}
	if f.Clients, err = d.Clients(); err != nil {
		return nil, err
	}
	return f, nil
}

// Decoder reads the JSON-lines format one network at a time, in the
// order Encoder writes it: the meta record first, then each network's
// record followed by its link records, then the client records. It
// holds one network and the client logs, never the fleet's probe data.
// Every error names the offending line.
type Decoder struct {
	sc   *bufio.Scanner
	line int
	meta Meta
	// next is a record read ahead of the network that precedes it: the
	// first record after a network's links.
	next *record
}

// NewDecoder starts reading a JSON-lines dataset from r and consumes its
// meta record.
func NewDecoder(r io.Reader) (*Decoder, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<28)
	d := &Decoder{sc: sc}
	rec, err := d.read()
	if err != nil {
		return nil, err
	}
	if rec == nil {
		return nil, fmt.Errorf("%w: missing meta record", ErrMalformed)
	}
	if rec.Kind != "meta" {
		return nil, d.errorf("%s record before the meta record", rec.Kind)
	}
	d.meta = *rec.Meta
	return d, nil
}

// Meta returns the dataset's meta record.
func (d *Decoder) Meta() Meta { return d.meta }

// read returns the next non-blank record, checked for its payload, or
// nil at the end of the input.
func (d *Decoder) read() (*record, error) {
	if rec := d.next; rec != nil {
		d.next = nil
		return rec, nil
	}
	for d.sc.Scan() {
		d.line++
		if len(d.sc.Bytes()) == 0 {
			continue
		}
		rec := &record{}
		if err := json.Unmarshal(d.sc.Bytes(), rec); err != nil {
			return nil, d.errorf("%w", err)
		}
		has, known := map[string]bool{"meta": rec.Meta != nil, "network": rec.Info != nil,
			"link": rec.Link != nil, "clients": rec.Clients != nil}[rec.Kind]
		if !known {
			return nil, d.errorf("unknown record kind %q", rec.Kind)
		}
		if !has {
			return nil, d.errorf("%s record without its payload", rec.Kind)
		}
		return rec, nil
	}
	if err := d.sc.Err(); err != nil {
		return nil, fmt.Errorf("dataset: scan: %w", err)
	}
	return nil, nil
}

// ErrMalformed marks JSON-lines input that is not a dataset: a record
// that does not parse, lacks its payload, or breaks the record order.
var ErrMalformed = errors.New("dataset: malformed input")

// errorf builds a line-numbered error wrapping ErrMalformed.
func (d *Decoder) errorf(format string, args ...any) error {
	return fmt.Errorf("%w: line %d: "+format, append([]any{ErrMalformed, d.line}, args...)...)
}

// Network returns the next network with its links, in file order. It
// returns io.EOF once the networks are done: at the first client record
// or the end of the input.
func (d *Decoder) Network() (*NetworkData, error) {
	rec, err := d.read()
	if err != nil {
		return nil, err
	}
	switch {
	case rec == nil:
		return nil, io.EOF
	case rec.Kind == "clients":
		d.next = rec
		return nil, io.EOF
	case rec.Kind == "link":
		return nil, d.errorf("link for unknown network %s/%s", rec.Net, rec.Band)
	case rec.Kind != "network":
		return nil, d.errorf("duplicate %s record", rec.Kind)
	}
	n := &NetworkData{Info: *rec.Info}
	for {
		rec, err := d.read()
		if err != nil {
			return nil, err
		}
		if rec == nil || rec.Kind != "link" {
			d.next = rec
			return n, nil
		}
		if rec.Net != n.Info.Name || rec.Band != n.Info.Band {
			return nil, d.errorf("link for network %s/%s inside network %s/%s", rec.Net, rec.Band, n.Info.Name, n.Info.Band)
		}
		n.Links = append(n.Links, rec.Link)
	}
}

// Clients returns the client logs that follow the networks. It must be
// called after Network has returned io.EOF.
func (d *Decoder) Clients() ([]*ClientData, error) {
	var out []*ClientData
	for {
		rec, err := d.read()
		if err != nil {
			return nil, err
		}
		if rec == nil {
			return out, nil
		}
		if rec.Kind != "clients" {
			return nil, d.errorf("%s record after the client records", rec.Kind)
		}
		out = append(out, rec.Clients)
	}
}

// Validate checks structural invariants: known bands, in-range AP and rate
// indices, ordered probe sets, loss rates in [0,1], and ordered,
// non-overlapping association intervals. It reports the first violation
// of the networks in order, then of the client logs.
func (f *Fleet) Validate() error {
	for _, n := range f.Networks {
		if err := n.Validate(); err != nil {
			return err
		}
	}
	for _, c := range f.Clients {
		if err := c.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// Validate checks one network's probe data: a known band, in-range AP and
// rate indices, strictly ordered probe sets and loss rates in [0,1].
func (n *NetworkData) Validate() error {
	band, err := n.Band()
	if err != nil {
		return fmt.Errorf("network %s: %w", n.Info.Name, err)
	}
	for _, l := range n.Links {
		if l.From < 0 || l.From >= n.NumAPs() || l.To < 0 || l.To >= n.NumAPs() || l.From == l.To {
			return fmt.Errorf("network %s: bad link %d->%d", n.Info.Name, l.From, l.To)
		}
		prevT := int32(-1)
		for _, ps := range l.Sets {
			if ps.T <= prevT {
				return fmt.Errorf("network %s link %d->%d: probe sets not strictly ordered", n.Info.Name, l.From, l.To)
			}
			prevT = ps.T
			for _, o := range ps.Obs {
				if int(o.RateIdx) >= len(band.Rates) {
					return fmt.Errorf("network %s: rate index %d out of range", n.Info.Name, o.RateIdx)
				}
				if o.Loss < 0 || o.Loss > 1 {
					return fmt.Errorf("network %s: loss %v out of range", n.Info.Name, o.Loss)
				}
			}
		}
	}
	return nil
}

// Validate checks one network's client log: ordered, non-overlapping
// associations inside the snapshot, on in-range APs.
func (c *ClientData) Validate() error {
	for _, cl := range c.Clients {
		prevEnd := int32(0)
		for _, a := range cl.Assocs {
			if a.Start < prevEnd || a.End <= a.Start {
				return fmt.Errorf("clients %s #%d: bad association [%d,%d)", c.Network, cl.ID, a.Start, a.End)
			}
			if a.End > c.Duration {
				return fmt.Errorf("clients %s #%d: association past snapshot end", c.Network, cl.ID)
			}
			if int(a.AP) < 0 || int(a.AP) >= c.NumAPs {
				return fmt.Errorf("clients %s #%d: AP %d out of range", c.Network, cl.ID, a.AP)
			}
			prevEnd = a.End
		}
	}
	return nil
}
