package wire

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"slices"
	"sync"

	"meshlab/internal/conc"
	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/snr"
)

// NetworkHeader is the cheaply decoded prefix of one network record:
// enough to decide — before any AP or probe data is read — whether the
// network is wanted. Filter matches against it.
type NetworkHeader struct {
	// Index is the network's position in fleet order.
	Index int
	// Name, Band, Env, and Spacing mirror dataset.NetworkInfo.
	Name    string
	Band    string
	Env     string
	Spacing float64
	// NumAPs is the network size (the AP count).
	NumAPs int
}

// Filter selects networks during a streaming walk. The zero value matches
// everything.
type Filter struct {
	// Band restricts to one band ("bg" or "n"); empty matches all bands.
	Band string
	// MinAPs and MaxAPs bound the network size; zero means unbounded.
	MinAPs, MaxAPs int
}

// Match reports whether the header passes the filter.
func (f Filter) Match(h *NetworkHeader) bool {
	if f.Band != "" && h.Band != f.Band {
		return false
	}
	if h.NumAPs < f.MinAPs {
		return false
	}
	if f.MaxAPs > 0 && h.NumAPs > f.MaxAPs {
		return false
	}
	return true
}

// Reader section cursor: the format's sections appear in a fixed order,
// and the cursor only moves forward.
const (
	sectNetworks  = iota // before the next network's record
	sectInNetwork        // header consumed, body pending
	sectClients          // before the client section
	sectSamples          // before the flat-sample section (or EOF)
	sectDone
)

// Reader streams a binary fleet file section by section: the networks one
// at a time (NextHeader + Decode or Skip, or the EachNetwork loop), then
// the client datasets, then the flat-sample section. It accepts both
// format versions; on v2 files Skip discards a network by its record
// length without decoding it, on v1 it walks the record structurally
// without materializing anything. Methods must be called from one
// goroutine; the cursor only moves forward.
type Reader struct {
	rd      reader
	version int
	meta    dataset.Meta
	flags   uint8
	nNets   int
	next    int // networks consumed so far
	sect    int
	hdr     NetworkHeader
	rem     int64 // v2: unread body bytes of the current record
}

// NewReader consumes the magic, metadata, and network count. The input is
// buffered internally unless it already is a *bufio.Reader.
func NewReader(in io.Reader) (*Reader, error) {
	br, ok := in.(*bufio.Reader)
	if !ok {
		br = bufio.NewReaderSize(in, 1<<20)
	}
	r := &Reader{rd: reader{r: br}}
	var magic [4]byte
	if _, err := io.ReadFull(br, magic[:]); err != nil {
		if err == io.EOF || err == io.ErrUnexpectedEOF {
			return nil, corruptf("wire: magic: %w", err)
		}
		return nil, fmt.Errorf("wire: magic: %w", err)
	}
	r.rd.base = int64(len(magic)) // magic was read off br directly
	switch magic {
	case Magic:
		r.version = 1
	case Magic2:
		r.version = 2
	default:
		return nil, corruptf("wire: bad magic %q (not a binary fleet file)", magic[:])
	}
	rd := &r.rd
	r.meta.Seed = rd.u64()
	r.meta.ProbeDuration = rd.i32()
	r.meta.ProbeInterval = rd.i32()
	r.meta.ClientDuration = rd.i32()
	if r.version >= 2 {
		r.flags = rd.u8()
		if rd.err == nil && r.flags&^flagFlatSamples != 0 {
			return nil, corruptf("wire: unknown section flags %#x (file from a newer format?)", r.flags)
		}
	}
	r.nNets = rd.count("network", 1<<20)
	if rd.err != nil {
		return nil, &Error{Offset: rd.off(), Network: -1, Section: "header", Err: rd.err}
	}
	return r, nil
}

// Offset returns the absolute byte offset of the next unread byte —
// what a plan records so a shard worker can re-open the file, seek, and
// resume with byte-accurate error positions.
func (r *Reader) Offset() int64 { return r.rd.off() }

// Meta returns the dataset metadata, available before any network is read.
func (r *Reader) Meta() dataset.Meta { return r.meta }

// Version returns the format version (1 or 2).
func (r *Reader) Version() int { return r.version }

// NumNetworks returns the network record count declared in the header.
func (r *Reader) NumNetworks() int { return r.nNets }

// HasFlatSamples reports whether the file carries the flat-sample
// section, i.e. whether Samples will be a direct section read.
func (r *Reader) HasFlatSamples() bool { return r.flags&flagFlatSamples != 0 }

// netErr wraps an error with the current network's identity and the
// reader's byte offset, so retry/quarantine policy can classify it and a
// degraded-mode manifest can name what was lost.
func (r *Reader) netErr(err error) error {
	return &Error{
		Offset: r.rd.off(), Network: r.hdr.Index,
		Net: r.hdr.Name, Band: r.hdr.Band,
		Section: "network", Err: err,
	}
}

// sampErr wraps a flat-sample-section error with the reader's byte
// offset. The section is shared across shards, so no network index is
// attached; the cause often names the network by name instead.
func (r *Reader) sampErr(err error) error {
	return &Error{Offset: r.rd.off(), Network: -1, Section: "flat-sample", Err: err}
}

// NextHeader advances to the next network and returns its header, or
// (nil, nil) once the network section is exhausted. A previously returned
// header whose body was neither decoded nor skipped is skipped implicitly.
func (r *Reader) NextHeader() (*NetworkHeader, error) {
	switch r.sect {
	case sectInNetwork:
		if err := r.Skip(); err != nil {
			return nil, err
		}
	case sectNetworks:
	default:
		return nil, fmt.Errorf("wire: network section already consumed")
	}
	if r.next >= r.nNets {
		r.sect = sectClients
		return nil, nil
	}
	rd := &r.rd
	idx := r.next
	r.next++
	var recLen int64
	if r.version >= 2 {
		recLen = int64(rd.u32())
	}
	start := rd.n
	r.hdr = NetworkHeader{Index: idx, Name: rd.str()}
	band := rd.u8()
	env := rd.u8()
	var ok bool
	if r.hdr.Band, ok = bandNames[band]; !ok && rd.err == nil {
		rd.err = corruptf("unknown band code %d", band)
	}
	if r.hdr.Env, ok = envNames[env]; !ok && rd.err == nil {
		rd.err = corruptf("unknown env code %d", env)
	}
	r.hdr.Spacing = rd.f64()
	r.hdr.NumAPs = rd.count("AP", 1<<16)
	if rd.err != nil {
		return nil, &Error{
			Offset: rd.off(), Network: idx, Net: r.hdr.Name,
			Section: "network", Err: fmt.Errorf("header: %w", rd.err),
		}
	}
	if r.version >= 2 {
		r.rem = recLen - (rd.n - start)
		if r.rem < 0 {
			rd.err = corruptf("record length %d shorter than its header", recLen)
			return nil, r.netErr(rd.err)
		}
	}
	r.sect = sectInNetwork
	return &r.hdr, nil
}

// Decode reads the current network's body (APs and links) and returns the
// full network dataset. On v2 files the consumed bytes are checked
// against the record's declared length. Probe sets whose observation
// bytes are equal share one read-only Obs row (see rowTable).
func (r *Reader) Decode() (*dataset.NetworkData, error) {
	if r.sect != sectInNetwork {
		return nil, fmt.Errorf("wire: Decode without a pending network header")
	}
	band, err := phy.BandByName(r.hdr.Band)
	if err != nil {
		return nil, r.netErr(err)
	}
	nRates := uint8(len(band.Rates))
	rd := &r.rd
	start := rd.n
	nd := &dataset.NetworkData{Info: dataset.NetworkInfo{
		Name: r.hdr.Name, Band: r.hdr.Band, Env: r.hdr.Env, Spacing: r.hdr.Spacing,
	}}
	if r.hdr.NumAPs > 0 {
		nd.Info.APs = make([]dataset.APInfo, 0, r.hdr.NumAPs)
	}
	for a := 0; a < r.hdr.NumAPs && rd.err == nil; a++ {
		nd.Info.APs = append(nd.Info.APs, dataset.APInfo{
			Name: rd.str(), X: rd.f64(), Y: rd.f64(), Outdoor: rd.u8() == 1,
		})
	}
	nLinks := rd.count("link", 1<<26)
	rows := rowTable{rows: make(map[string][]dataset.Obs)}
	var links []dataset.Link // block the Link structs are carved from
	for l := 0; l < nLinks && rd.err == nil; l++ {
		if len(links) == 0 {
			links = make([]dataset.Link, r.capHint(nLinks-l, linkMinLen))
		}
		link := &links[0]
		links = links[1:]
		link.From, link.To = int(rd.u16()), int(rd.u16())
		nSets := rd.count("probe set", 1<<26)
		if rd.err == nil && nSets > 0 {
			link.Sets = make([]dataset.ProbeSet, 0, r.capHint(nSets, setHeaderLen))
		}
		for s := 0; s < nSets && rd.err == nil; s++ {
			link.Sets = append(link.Sets, r.decodeSet(&rows, link, nRates))
		}
		nd.Links = append(nd.Links, link)
	}
	if rd.err != nil {
		return nil, r.netErr(rd.err)
	}
	if r.version >= 2 {
		if got := rd.n - start; got != r.rem {
			rd.err = corruptf("record body was %d bytes, length prefix promised %d", got, r.rem)
			return nil, r.netErr(rd.err)
		}
	}
	r.sect = sectNetworks
	return nd, nil
}

// Encoded sizes within a network record (docs/FORMAT.md): a link's
// endpoints and set count, a probe set's fixed prefix (t, snr, snrStd,
// obsCount), and one observation (rateIdx, loss).
const (
	linkMinLen   = 2 + 2 + 4
	setHeaderLen = 4 + 2 + 4 + 1
	obsLen       = 1 + 4
)

// capHint sizes a preallocation for n elements of at least minLen encoded
// bytes each by the bytes the buffer already holds, so a corrupt count or
// record length cannot demand memory the bytes present could not fill.
// A short hint only costs an append's regrowth.
func (r *Reader) capHint(n, minLen int) int {
	return max(1, min(n, r.rd.r.Buffered()/minLen))
}

// decodeSet decodes one probe set. A set the buffer already holds whole
// is parsed in place and consumed with one Discard. One that straddles
// the buffer's end, or whose row carries an out-of-range rate index, is
// read field by field instead: that refills the buffer, and reports a
// truncation, an I/O fault or a bad rate index at the field where it
// happens.
func (r *Reader) decodeSet(rows *rowTable, link *dataset.Link, nRates uint8) dataset.ProbeSet {
	br := r.rd.r
	if n := br.Buffered(); n >= setHeaderLen {
		b, _ := br.Peek(n) // buffered bytes only: never fills, never fails
		need := setHeaderLen + obsLen*int(b[setHeaderLen-1])
		if need <= n {
			if row, ok := rows.intern(b[setHeaderLen:need], nRates); ok {
				ps := dataset.ProbeSet{
					T:      int32(binary.LittleEndian.Uint32(b)),
					SNR:    int16(binary.LittleEndian.Uint16(b[4:])),
					SNRStd: math.Float32frombits(binary.LittleEndian.Uint32(b[6:])),
					Obs:    row,
				}
				br.Discard(need)
				r.rd.n += int64(need)
				return ps
			}
		}
	}
	rd := &r.rd
	ps := dataset.ProbeSet{T: rd.i32(), SNR: rd.i16(), SNRStd: rd.f32()}
	nObs := int(rd.u8())
	raw := rows.scratch[:0]
	for o := 0; o < nObs && rd.err == nil; o++ {
		ri := rd.u8()
		// Rate indices index the band's rate table downstream
		// (snr.Flatten); bound them here so a corrupt file is an error,
		// never a panic.
		if ri >= nRates && rd.err == nil {
			rd.err = corruptf("link %d→%d: observation rate index %d out of range for band %s (%d rates)",
				link.From, link.To, ri, r.hdr.Band, nRates)
		}
		raw = append(raw, ri)
		raw = append(raw, rd.read(4)...)
	}
	rows.scratch = raw
	if rd.err == nil {
		ps.Obs, _ = rows.intern(raw, nRates)
	}
	return ps
}

// rowTable interns the observation rows of one network decode. Rows are
// keyed by their raw encoded bytes, so only bit-identical rows share
// (−0 and +0, or two NaN payloads, stay distinct), and every set with the
// same bytes gets the same []dataset.Obs, carved from block-allocated
// backing with len == cap so a caller's append copies instead of writing
// into a neighbor. Probe losses are quantized by the probe count, so a
// network's rows repeat heavily and the table holds a few percent of its
// sets.
type rowTable struct {
	rows    map[string][]dataset.Obs
	block   []dataset.Obs // unused tail of the current backing block
	scratch []byte        // a row read field by field
}

// rowBlockLen is the length of a row backing block: 32 KiB, small next
// to any network with enough sets to fill one.
const rowBlockLen = 1 << 12

// intern returns the shared row for raw (obsLen bytes per observation),
// or false when raw holds a rate index out of range for the band. Only
// validated rows enter the table, so a hit needs no check.
func (t *rowTable) intern(raw []byte, nRates uint8) ([]dataset.Obs, bool) {
	if len(raw) == 0 {
		return nil, true
	}
	if row, ok := t.rows[string(raw)]; ok {
		return row, true
	}
	n := len(raw) / obsLen
	for o := 0; o < n; o++ {
		if raw[o*obsLen] >= nRates {
			return nil, false
		}
	}
	if len(t.block) < n {
		t.block = make([]dataset.Obs, rowBlockLen)
	}
	row := t.block[:n:n]
	t.block = t.block[n:]
	for o := range row {
		e := raw[o*obsLen:]
		row[o] = dataset.Obs{RateIdx: e[0], Loss: math.Float32frombits(binary.LittleEndian.Uint32(e[1:]))}
	}
	t.rows[string(raw)] = row
	return row, true
}

// Skip discards the current network's body without decoding it: a single
// buffered discard on v2 (the record length is known), a structural walk
// that materializes nothing on v1.
func (r *Reader) Skip() error {
	if r.sect != sectInNetwork {
		return fmt.Errorf("wire: Skip without a pending network header")
	}
	rd := &r.rd
	if r.version >= 2 {
		rd.discard(r.rem)
	} else {
		r.skipBodyV1()
	}
	if rd.err != nil {
		return r.netErr(rd.err)
	}
	r.sect = sectNetworks
	return nil
}

// skipBodyV1 walks a v1 network body (which has no length prefix),
// discarding fixed-width runs as they are sized by the decoded counts.
func (r *Reader) skipBodyV1() {
	rd := &r.rd
	for a := 0; a < r.hdr.NumAPs && rd.err == nil; a++ {
		rd.skipStr()
		rd.discard(8 + 8 + 1) // x, y, outdoor
	}
	nLinks := rd.count("link", 1<<26)
	for l := 0; l < nLinks && rd.err == nil; l++ {
		rd.discard(2 + 2) // from, to
		nSets := rd.count("probe set", 1<<26)
		for s := 0; s < nSets && rd.err == nil; s++ {
			rd.discard(4 + 2 + 4) // t, snr, std
			nObs := int(rd.u8())
			rd.discard(int64(nObs) * 5) // rate u8 + loss f32
		}
	}
}

// EachNetwork streams every remaining network matching the filter through
// fn in fleet order, skipping the rest without decoding their bodies. An
// fn error aborts the walk and is returned verbatim.
func (r *Reader) EachNetwork(filter Filter, fn func(*dataset.NetworkData) error) error {
	for {
		h, err := r.NextHeader()
		if err != nil {
			return err
		}
		if h == nil {
			return nil
		}
		if !filter.Match(h) {
			if err := r.Skip(); err != nil {
				return err
			}
			continue
		}
		nd, err := r.Decode()
		if err != nil {
			return err
		}
		if err := fn(nd); err != nil {
			return err
		}
	}
}

// skipToClients fast-forwards over any unconsumed networks.
func (r *Reader) skipToClients() error {
	for r.sect == sectNetworks || r.sect == sectInNetwork {
		h, err := r.NextHeader()
		if err != nil {
			return err
		}
		if h == nil {
			return nil
		}
		if err := r.Skip(); err != nil {
			return err
		}
	}
	return nil
}

// Clients reads the client section, skipping any unconsumed networks
// first. On v2 files the consumed bytes are checked against the section's
// declared length.
func (r *Reader) Clients() ([]*dataset.ClientData, error) {
	if err := r.skipToClients(); err != nil {
		return nil, err
	}
	if r.sect != sectClients {
		return nil, fmt.Errorf("wire: client section already consumed")
	}
	rd := &r.rd
	var secLen int64
	if r.version >= 2 {
		secLen = int64(rd.u64())
	}
	start := rd.n
	cds, err := decodeClients(rd)
	if err != nil {
		return nil, err
	}
	if r.version >= 2 && rd.n-start != secLen {
		rd.err = corruptf("client section was %d bytes, length prefix promised %d", rd.n-start, secLen)
		return nil, &Error{Offset: rd.off(), Network: -1, Section: "clients", Err: rd.err}
	}
	r.sect = sectSamples
	return cds, nil
}

// skipClientSection discards the client section (after fast-forwarding
// over any unconsumed networks): a single discard on v2, a decode-and-drop
// walk on v1 (client data is orders of magnitude smaller than probe data).
func (r *Reader) skipClientSection() error {
	if err := r.skipToClients(); err != nil {
		return err
	}
	if r.sect != sectClients {
		return nil
	}
	rd := &r.rd
	if r.version >= 2 {
		secLen := int64(rd.u64())
		rd.discard(secLen)
	} else if _, err := decodeClients(rd); err != nil {
		return err
	}
	if rd.err != nil {
		return &Error{Offset: rd.off(), Network: -1, Section: "clients", Err: rd.err}
	}
	r.sect = sectSamples
	return nil
}

func decodeClients(rd *reader) ([]*dataset.ClientData, error) {
	var cds []*dataset.ClientData
	nClients := rd.count("client dataset", 1<<20)
	for i := 0; i < nClients && rd.err == nil; i++ {
		cd := &dataset.ClientData{}
		cd.Network = rd.str()
		env := rd.u8()
		var ok bool
		if cd.Env, ok = envNames[env]; !ok && rd.err == nil {
			rd.err = corruptf("unknown env code %d", env)
			return nil, &Error{Offset: rd.off(), Network: -1, Section: "clients", Err: rd.err}
		}
		cd.Duration = rd.i32()
		cd.NumAPs = int(rd.u16())
		n := rd.count("client", 1<<24)
		for c := 0; c < n && rd.err == nil; c++ {
			cl := dataset.ClientLog{ID: int(rd.u32())}
			na := rd.count("association", 1<<24)
			for a := 0; a < na && rd.err == nil; a++ {
				cl.Assocs = append(cl.Assocs, dataset.Assoc{
					AP: int32(rd.u16()), Start: rd.i32(), End: rd.i32(),
				})
			}
			cd.Clients = append(cd.Clients, cl)
		}
		cds = append(cds, cd)
	}
	if rd.err != nil {
		return nil, &Error{Offset: rd.off(), Network: -1, Section: "clients", Err: rd.err}
	}
	return cds, nil
}

// Samples returns the per-band flattened §4 samples (band name → samples
// in fleet order; bands without samples are omitted). When the file
// carries the flat-sample section, any unconsumed networks and the client
// section are skipped without decoding and the section is read directly —
// the O(read) warm-start path, with the per-network groups decoded across
// the process worker budget (see SampleGroups). Otherwise the remaining
// networks are streamed one at a time through snr.Flattener, so peak
// memory is one network plus the samples either way; this fallback
// requires that no network has been consumed yet.
func (r *Reader) Samples() (map[string][]snr.Sample, error) {
	if r.HasFlatSamples() {
		out := make(map[string][]snr.Sample, 2)
		err := r.SampleGroups(0, func(g *SampleGroup) error {
			if len(g.Samples) > 0 {
				out[g.Band] = append(out[g.Band], g.Samples...)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		return out, nil
	}
	if r.next != 0 || r.sect != sectNetworks {
		return nil, fmt.Errorf("wire: no flat-sample section and the network section was already consumed")
	}
	flatteners := make(map[string]*snr.Flattener, 2)
	err := r.EachNetwork(Filter{}, func(nd *dataset.NetworkData) error {
		fl := flatteners[nd.Info.Band]
		if fl == nil {
			band, err := nd.Band()
			if err != nil {
				return err
			}
			fl = snr.NewFlattener(band)
			flatteners[nd.Info.Band] = fl
		}
		return fl.Add(nd)
	})
	if err != nil {
		return nil, err
	}
	if err := r.skipClientSection(); err != nil {
		return nil, err
	}
	r.sect = sectDone
	out := make(map[string][]snr.Sample, len(flatteners))
	for bandName, fl := range flatteners {
		if s := fl.Samples(); len(s) > 0 {
			out[bandName] = s
		}
	}
	return out, nil
}

// SampleGroup is one run of a network's flat §4 samples, the section's
// independently decodable unit: a group's row bytes are fixed-width and
// self-contained given its header, so groups can decode in parallel.
// Most networks arrive as exactly one group; a huge network is delivered
// as several consecutive groups split only at directed-link boundaries,
// so a link's samples are always complete within one group and no
// network's sample set ever needs to be resident at once (the chunk
// contract the snr accumulators consume).
type SampleGroup struct {
	// Band is the band name ("bg" or "n"); the section stores each band's
	// groups contiguously, in fleet order within the band.
	Band string
	// Net is the network name every sample in the group shares. A
	// network's groups are consecutive.
	Net string
	// Samples holds the group's samples in probe order (shared Tput
	// backing). Empty for networks that delivered nothing.
	Samples []snr.Sample
}

// sampleRowLen returns the fixed encoded width of one sample row: from
// u16, to u16, t i32, snr i16, popt u8, best f64, then nr throughput
// f64s.
func sampleRowLen(nr int) int { return 2 + 2 + 4 + 2 + 1 + 8 + nr*8 }

// sampleGroupJob is one group moving through the decode pipeline: the
// producer reads its raw bytes off the stream, a pool worker decodes
// them, and the consumer delivers the result in file order.
type sampleGroupJob struct {
	band    string
	net     string
	nr, n   int
	off     int64 // absolute offset of the group's first row, for decode errors
	raw     []byte
	samples []snr.Sample
	err     error
	done    chan struct{}
}

// SampleGroups streams the flat-sample section as per-network groups,
// invoking fn once per group in file order (all of one band's groups,
// then the next band's). Group decoding is overlapped and parallel: a
// producer reads group bytes sequentially ahead of consumption while a
// pool of workers (≤ 0 means the process conc.Budget) decodes them, so
// the stream read, the decode of group i+1, and fn's own work on group i
// all proceed concurrently — and the delivered groups are byte-identical
// at any pool size. An fn error aborts the walk and is returned verbatim.
//
// The section is required (see HasFlatSamples); for section-less files
// stream the network records through snr.Flattener instead. Corrupt
// input — truncated mid-group, sample counts exceeding the section
// budget, out-of-range rate indices — yields a contextual error, never a
// panic, and never an allocation beyond the bytes actually present plus
// one read chunk.
func (r *Reader) SampleGroups(workers int, fn func(*SampleGroup) error) error {
	return r.FilterSampleGroups(workers, nil, fn)
}

// FilterSampleGroups behaves like SampleGroups, but decodes only the
// groups keep returns true for; the rest are discarded raw, without
// decoding (their fixed-width byte length is known from the group
// header). keep receives both the band name and the network name: a
// network can carry one group per band, so name alone does not identify
// a group. A nil keep keeps every group. This is the shard runner's
// sample walk: each shard streams the one shared section but pays
// decode cost only for its own networks — and, on resume, only for the
// (band, network) groups a prior run's checkpoint has not already fed.
func (r *Reader) FilterSampleGroups(workers int, keep func(band, net string) bool, fn func(*SampleGroup) error) error {
	if !r.HasFlatSamples() {
		return fmt.Errorf("wire: file has no flat-sample section; stream the network records through snr.Flattener instead")
	}
	if err := r.skipClientSection(); err != nil {
		return err
	}
	if r.sect != sectSamples {
		return fmt.Errorf("wire: flat-sample section already consumed")
	}
	err := r.streamSampleGroups(conc.Workers(workers), keep, fn)
	// The cursor is past (or, after an abort, inside) the trailing
	// section either way; poison the reader on failure so a later call
	// cannot misread a half-consumed stream.
	r.sect = sectDone
	if err != nil && r.rd.err == nil {
		r.rd.err = fmt.Errorf("flat-sample walk aborted: %w", err)
	}
	return err
}

// streamSampleGroups runs the bounded producer/worker/consumer pipeline
// behind SampleGroups. The producer goroutine owns the underlying reader
// for the duration of the call and reads up to a window's worth of
// groups ahead; the consumer (the caller's goroutine) applies fn in send
// order.
func (r *Reader) streamSampleGroups(workers int, keep func(band, net string) bool, fn func(*SampleGroup) error) error {
	// ordered is the in-order delivery window (double buffering needs
	// ≥ 2); work feeds the decode pool. work's capacity plus the workers
	// themselves always exceed the window, so the producer can park a
	// job in work for every job it parked in ordered without deadlock.
	ordered := make(chan *sampleGroupJob, workers+1)
	work := make(chan *sampleGroupJob, workers+1)
	quit := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := range work {
				j.samples, j.err = decodeSampleGroup(j.band, j.net, j.nr, j.n, j.raw)
				if j.err != nil {
					j.err = &Error{Offset: j.off, Network: -1, Section: "flat-sample", Err: j.err}
				}
				j.raw = nil
				close(j.done)
			}
		}()
	}
	go func() {
		r.produceSampleGroups(ordered, work, quit, keep)
		close(work)
		close(ordered)
	}()

	var abort error
	quitClosed := false
	stop := func(err error) {
		if abort == nil {
			abort = err
		}
		if !quitClosed {
			close(quit)
			quitClosed = true
		}
	}
	for j := range ordered {
		if abort != nil {
			continue // drain the window; in-flight decodes finish via wg.Wait
		}
		<-j.done
		if j.err != nil {
			stop(j.err)
			continue
		}
		if err := fn(&SampleGroup{Band: j.band, Net: j.net, Samples: j.samples}); err != nil {
			stop(err)
		}
	}
	wg.Wait()
	return abort
}

// produceSampleGroups sequentially reads the flat-sample section,
// emitting one job per group. Error jobs carry a pre-closed done channel
// and skip the decode pool. Every send races quit so a consumer abort
// unblocks the producer mid-window.
func (r *Reader) produceSampleGroups(ordered, work chan<- *sampleGroupJob, quit <-chan struct{}, keep func(band, net string) bool) {
	rd := &r.rd
	fail := func(err error) {
		j := &sampleGroupJob{err: r.sampErr(err), done: make(chan struct{})}
		close(j.done)
		select {
		case ordered <- j:
		case <-quit:
		}
	}
	secLen := int64(rd.u64())
	start := rd.n
	nBands := int(rd.u8())
	if rd.err != nil {
		fail(rd.err)
		return
	}
	for b := 0; b < nBands; b++ {
		code := rd.u8()
		bandName, ok := bandNames[code]
		if !ok && rd.err == nil {
			fail(corruptf("unknown band code %d", code))
			return
		}
		band, err := phy.BandByName(bandName)
		if err != nil && rd.err == nil {
			fail(corruptf("%w", err))
			return
		}
		nr := int(rd.u8())
		if rd.err == nil && nr != len(band.Rates) {
			fail(corruptf("band %s has %d rates, file stores %d",
				bandName, len(band.Rates), nr))
			return
		}
		nGroups := rd.count("sample group", 1<<20)
		rowLen := sampleRowLen(nr)
		for g := 0; g < nGroups && rd.err == nil; g++ {
			name := rd.str()
			n := rd.count("flat sample", 1<<28)
			if rd.err != nil {
				break
			}
			// Bound the count by the bytes the length prefix says are left
			// in the section: catches counts that disagree with an honest
			// secLen before any row is read (a corrupt secLen is caught by
			// the chunked raw read below and the final length check).
			if remaining := secLen - (rd.n - start); int64(n)*int64(rowLen) > remaining {
				fail(corruptf("network %s declares %d samples (%d bytes) but only %d section bytes remain",
					name, n, int64(n)*int64(rowLen), remaining))
				return
			}
			if keep != nil && !keep(bandName, name) {
				// Not this shard's network: skip the group's fixed-width
				// rows wholesale — the bound check above already proved the
				// discard stays inside the section.
				rd.discard(int64(n) * int64(rowLen))
				continue
			}
			if n > directDecodeRows() {
				// Huge groups (the reference fleet's largest network alone
				// holds ~70% of all samples) skip both the raw staging
				// buffer and the single-delivery contract: the producer
				// decodes them inline, row by row, off the buffered
				// stream, emitting link-aligned sub-chunks as it goes.
				// Nothing proportional to the network is ever resident —
				// the point of the chunked §4 path, which a
				// network-at-once delivery would defeat exactly for the
				// network that dominates the sample count.
				if !r.produceSampleChunks(ordered, quit, bandName, name, nr, n) {
					return
				}
				if rd.err != nil {
					break
				}
				continue
			}
			// Read the group's raw bytes in bounded steps, so allocation
			// never exceeds the bytes actually present plus one chunk even
			// when both secLen and the count lie. slices.Grow + reslice
			// extends without the zeroed throwaway an append(make(...))
			// would churn per step; rd.full overwrites the region anyway.
			const chunk = 1 << 20
			total := int64(n) * int64(rowLen)
			cap64 := total
			if cap64 > chunk {
				cap64 = chunk
			}
			rowsOff := rd.off()
			raw := make([]byte, 0, cap64)
			for int64(len(raw)) < total && rd.err == nil {
				step := total - int64(len(raw))
				if step > chunk {
					step = chunk
				}
				from := len(raw)
				raw = slices.Grow(raw, int(step))[:from+int(step)]
				rd.full(raw[from:])
			}
			if rd.err != nil {
				break
			}
			j := &sampleGroupJob{
				band: bandName, net: name, nr: nr, n: n, off: rowsOff, raw: raw,
				done: make(chan struct{}),
			}
			select {
			case ordered <- j:
			case <-quit:
				return
			}
			select {
			case work <- j:
			case <-quit:
				return
			}
		}
		if rd.err != nil {
			// The cause may be a transient I/O fault, not corruption;
			// surface it unmarked so retry policy classifies the root cause.
			fail(rd.err)
			return
		}
	}
	if got := rd.n - start; got != secLen {
		fail(corruptf("section was %d bytes, length prefix promised %d", got, secLen))
	}
}

// directDecodeRows is the group size above which the producer switches
// from staged whole-group decoding to inline, link-aligned sub-chunk
// streaming: past this many rows the group itself — not the tables the
// §4 accumulators train from it — would dominate the §4 path's memory.
// It is twice the sub-chunk size (snr.ChunkRows, which tests lower to
// exercise the splitting on small fleets), so splitting always engages
// when the inline path does.
func directDecodeRows() int { return 2 * snr.ChunkRows }

// produceSampleChunks decodes one huge group straight off the stream and
// emits it as link-aligned sub-chunks: peak memory is one sub-chunk plus
// a row buffer, with no raw staging and no whole-group residency. It
// reports false when the walk should stop (consumer quit, or a decode
// validation error already delivered); stream read errors are left in
// r.rd.err for the caller to surface.
func (r *Reader) produceSampleChunks(ordered chan<- *sampleGroupJob, quit <-chan struct{}, bandName, net string, nr, n int) bool {
	rd := &r.rd
	row := make([]byte, sampleRowLen(nr))
	emit := func(samples []snr.Sample, err error) bool {
		j := &sampleGroupJob{
			band: bandName, net: net, nr: nr, n: len(samples),
			samples: samples, err: err,
			done: make(chan struct{}),
		}
		close(j.done)
		select {
		case ordered <- j:
			return err == nil
		case <-quit:
			return false
		}
	}
	chunkRows := snr.ChunkRows
	samples := make([]snr.Sample, 0, chunkRows)
	// Tput backing arrays are allocated in bounded blocks as rows are
	// actually read, so a corrupt count backed by a lying section length
	// can never demand more than one block before the stream runs dry.
	var flat []float64
	off := 0
	lastFrom, lastTo := -1, -1
	for i := 0; i < n; i++ {
		rd.full(row)
		if rd.err != nil {
			return true
		}
		from := int(binary.LittleEndian.Uint16(row[0:]))
		to := int(binary.LittleEndian.Uint16(row[2:]))
		if len(samples) >= chunkRows && (from != lastFrom || to != lastTo) {
			if !emit(samples, nil) {
				return false
			}
			samples = make([]snr.Sample, 0, chunkRows)
		}
		lastFrom, lastTo = from, to
		if off == len(flat) {
			flat = make([]float64, chunkRows*nr)
			off = 0
		}
		s := snr.Sample{
			Net:  net,
			From: from,
			To:   to,
			T:    int32(binary.LittleEndian.Uint32(row[4:])),
			SNR:  int(int16(binary.LittleEndian.Uint16(row[8:]))),
			Popt: int(row[10]),
			Tput: flat[off : off+nr : off+nr],
		}
		off += nr
		s.BestTput = math.Float64frombits(binary.LittleEndian.Uint64(row[11:]))
		if s.Popt >= nr {
			return emit(nil, r.sampErr(corruptf("band %s network %s: optimal rate index %d out of range",
				bandName, net, s.Popt)))
		}
		for k := 0; k < nr; k++ {
			s.Tput[k] = math.Float64frombits(binary.LittleEndian.Uint64(row[19+k*8:]))
		}
		samples = append(samples, s)
	}
	return emit(samples, nil)
}

// decodeSampleGroup parses one group's fixed-width rows. It touches no
// reader state, so the pool decodes groups concurrently; each group
// shares one network-name string and one flat Tput backing array.
func decodeSampleGroup(bandName, net string, nr, n int, raw []byte) ([]snr.Sample, error) {
	if n == 0 {
		return nil, nil
	}
	rowLen := sampleRowLen(nr)
	samples := make([]snr.Sample, 0, n)
	flat := make([]float64, n*nr)
	for i := 0; i < n; i++ {
		row := raw[i*rowLen : (i+1)*rowLen]
		s := snr.Sample{
			Net:  net,
			From: int(binary.LittleEndian.Uint16(row[0:])),
			To:   int(binary.LittleEndian.Uint16(row[2:])),
			T:    int32(binary.LittleEndian.Uint32(row[4:])),
			SNR:  int(int16(binary.LittleEndian.Uint16(row[8:]))),
			Popt: int(row[10]),
			Tput: flat[i*nr : (i+1)*nr : (i+1)*nr],
		}
		s.BestTput = math.Float64frombits(binary.LittleEndian.Uint64(row[11:]))
		if s.Popt >= nr {
			return nil, corruptf("band %s network %s: optimal rate index %d out of range",
				bandName, net, s.Popt)
		}
		for k := 0; k < nr; k++ {
			s.Tput[k] = math.Float64frombits(binary.LittleEndian.Uint64(row[19+k*8:]))
		}
		samples = append(samples, s)
	}
	return samples, nil
}

// Read decodes a whole fleet from either format version, streaming
// internally. A trailing flat-sample section, if present, is not read;
// use a Reader (or ReadSamples) to access it.
func Read(in io.Reader) (*dataset.Fleet, error) {
	r, err := NewReader(in)
	if err != nil {
		return nil, err
	}
	f := &dataset.Fleet{Meta: r.Meta()}
	if err := r.EachNetwork(Filter{}, func(nd *dataset.NetworkData) error {
		f.Networks = append(f.Networks, nd)
		return nil
	}); err != nil {
		return nil, err
	}
	cds, err := r.Clients()
	if err != nil {
		return nil, err
	}
	f.Clients = cds
	return f, nil
}

// ReadSamples returns the per-band §4 samples of a binary fleet stream
// without ever materializing more than one network: from the flat-sample
// section when the file has one, otherwise by streaming every network
// through a snr.Flattener. See Reader.Samples.
func ReadSamples(in io.Reader) (map[string][]snr.Sample, error) {
	r, err := NewReader(in)
	if err != nil {
		return nil, err
	}
	return r.Samples()
}
