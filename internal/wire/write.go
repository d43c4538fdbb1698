package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"meshlab/internal/dataset"
	"meshlab/internal/phy"
	"meshlab/internal/snr"
)

// Write encodes the fleet in the current (MLF2) binary format without the
// flat-sample section: the smallest interchange form. Dataset caches
// carry the section (EncodeOptions.Samples) so warm analysis starts skip
// re-flattening.
func Write(out io.Writer, f *dataset.Fleet) error {
	return EncodeFleet(out, f, EncodeOptions{})
}

// WriteWithSamples encodes the fleet like Write and appends the
// flat-sample section: the per-band §4 samples snr.Flatten derives from
// the probe data, stored so a later Reader.Samples is O(read). It also
// returns those samples (band → samples in fleet order, empty bands
// omitted — the same shape Reader.Samples yields), flattened from the
// fleet after encoding; a writer that does not need them should call
// EncodeFleet, which never materializes them. The section roughly
// triples the file size (a sample's f64 throughput row outweighs its
// probe set); it is meant for dataset caches, not interchange files.
func WriteWithSamples(out io.Writer, f *dataset.Fleet) (map[string][]snr.Sample, error) {
	if err := EncodeFleet(out, f, EncodeOptions{Samples: true}); err != nil {
		return nil, err
	}
	samples := make(map[string][]snr.Sample)
	for _, band := range sampleBands {
		s, err := snr.Flatten(f.ByBand(band))
		if err != nil {
			return nil, fmt.Errorf("wire: flat-sample section: %w", err)
		}
		if len(s) > 0 {
			samples[band] = s
		}
	}
	return samples, nil
}

// EncodeFleet encodes an in-memory fleet through an Encoder: its
// networks, then its client datasets.
func EncodeFleet(out io.Writer, f *dataset.Fleet, opts EncodeOptions) error {
	enc := NewEncoder(out, f.Meta, len(f.Networks), opts)
	defer enc.Abort()
	for _, nd := range f.Networks {
		if err := enc.Network(nd); err != nil {
			return err
		}
	}
	for _, cd := range f.Clients {
		if err := enc.Clients(cd); err != nil {
			return err
		}
	}
	return enc.Close()
}

// sampleBands is the fixed band order of the flat-sample section.
var sampleBands = [...]string{"bg", "n"}

// EncodeOptions configures an Encoder.
type EncodeOptions struct {
	// Samples appends the flat-sample section.
	Samples bool
	// SpoolDir is where the trailing sections (client datasets and, with
	// Samples, each band's sample groups) wait while the networks
	// stream: one temp file per section, unlinked as soon as it is
	// created, so no exit path can leave it behind. Put it beside the
	// output. "" keeps them in memory.
	SpoolDir string
}

// Encoder writes an MLF2 file one network at a time, so a writer holds
// one network, never the fleet. Each network record goes straight to
// the output behind a length prefix computed up front (recordSize),
// and, with EncodeOptions.Samples, each probe set is flattened into its
// band's sample spool as the record is written. Client datasets spool
// too. Close appends the client section and the sample section after the
// last network. The bytes are exactly those of the whole-fleet encoding
// of the same networks and client datasets.
//
// Network and Clients validate their argument before writing any of it;
// the first error is sticky. Call Close to finish the file, or Abort to
// drop the spools after an error; both are idempotent.
type Encoder struct {
	out      writer
	opts     EncodeOptions
	want     int // network count declared in the header
	nets     int // network records written
	clients  *spool
	nClients int
	bands    [len(sampleBands)]*bandSpool // indexed by band code
	done     bool
	err      error
}

// NewEncoder starts a file of numNetworks network records on out. The
// count goes in the header, so a streaming caller must know it before
// the first network (synth.Generator.NumDatasets).
func NewEncoder(out io.Writer, meta dataset.Meta, numNetworks int, opts EncodeOptions) *Encoder {
	e := &Encoder{out: writer{w: out, buf: make([]byte, 0, chunkSize+chunkSize/8)}, opts: opts, want: numNetworks}
	e.out.bytes(Magic2[:])
	encodeMeta(&e.out, meta)
	var flags uint8
	if opts.Samples {
		flags |= flagFlatSamples
	}
	e.out.u8(flags)
	e.out.u32(uint32(numNetworks))
	return e
}

func (e *Encoder) fail(err error) error {
	if e.err == nil {
		e.err = err
	}
	return e.err
}

// Network validates nd and writes its record, flattening its probe sets
// into the sample spool when the file carries the sample section.
func (e *Encoder) Network(nd *dataset.NetworkData) error {
	if e.err != nil || e.done {
		return e.fail(errAborted)
	}
	if e.nets == e.want {
		return e.fail(fmt.Errorf("wire: network %s beyond the %d declared", nd.Info.Name, e.want))
	}
	size, err := recordSize(nd)
	if err != nil {
		return e.fail(err)
	}
	if size > math.MaxUint32 {
		return e.fail(fmt.Errorf("wire: network %s: record exceeds the format's u32 length field", nd.Info.Name))
	}
	var bs *bandSpool
	if e.opts.Samples {
		if bs, err = e.bandSpool(nd.Info.Band); err != nil {
			return e.fail(err)
		}
	}
	e.out.u32(uint32(size))
	start := e.out.size()
	writeNetwork(&e.out, nd, bs)
	if got := e.out.size() - start; got != size {
		return e.fail(fmt.Errorf("wire: network %s: encoded %d record bytes, sized %d", nd.Info.Name, got, size))
	}
	e.nets++
	if bs != nil && bs.err != nil {
		return e.fail(fmt.Errorf("wire: sample spool: %w", bs.err))
	}
	if e.out.err != nil {
		return e.fail(fmt.Errorf("wire: %w", e.out.err))
	}
	return nil
}

// bandSpool returns the sample spool of band, creating it on first use.
func (e *Encoder) bandSpool(band string) (*bandSpool, error) {
	code := bandCodes[band] // recordSize has checked the band
	if bs := e.bands[code]; bs != nil {
		return bs, nil
	}
	pb, err := phy.BandByName(band)
	if err != nil {
		return nil, fmt.Errorf("wire: flat-sample section: %w", err)
	}
	if len(pb.Rates) > math.MaxUint8 {
		return nil, fmt.Errorf("wire: flat-sample section: band %s has %d rates (u8 limit)", band, len(pb.Rates))
	}
	sp, err := newSpool(e.opts.SpoolDir)
	if err != nil {
		return nil, fmt.Errorf("wire: sample spool: %w", err)
	}
	bs := &bandSpool{spool: sp, band: pb, row: make([]float64, len(pb.Rates))}
	e.bands[code] = bs
	return bs, nil
}

// Clients validates one network's client dataset and spools it for the
// client section.
func (e *Encoder) Clients(cd *dataset.ClientData) error {
	if e.err != nil || e.done {
		return e.fail(errAborted)
	}
	if err := checkClients(cd); err != nil {
		return e.fail(err)
	}
	if e.clients == nil {
		sp, err := newSpool(e.opts.SpoolDir)
		if err != nil {
			return e.fail(fmt.Errorf("wire: client spool: %w", err))
		}
		e.clients = sp
	}
	writeClients(&e.clients.writer, cd)
	e.clients.maybeFlush()
	e.nClients++
	if e.clients.err != nil {
		return e.fail(fmt.Errorf("wire: client spool: %w", e.clients.err))
	}
	return nil
}

// Close appends the client section and, with Samples, the sample section,
// flushes the output and drops the spools. After an error it writes
// nothing more and returns that error.
func (e *Encoder) Close() error {
	if e.done {
		return e.err
	}
	defer e.release()
	if e.err != nil {
		return e.err
	}
	if e.nets != e.want {
		return e.fail(fmt.Errorf("wire: %d networks encoded, %d declared", e.nets, e.want))
	}
	var clientLen int64
	if e.clients != nil {
		clientLen = e.clients.size()
	}
	e.out.u64(uint64(4 + clientLen))
	e.out.u32(uint32(e.nClients))
	if e.clients != nil {
		e.clients.copyTo(&e.out)
	}
	if e.opts.Samples {
		secLen := int64(1)
		var bands []*bandSpool
		for _, bs := range e.bands {
			if bs != nil {
				bands = append(bands, bs)
				secLen += 1 + 1 + 4 + bs.size()
			}
		}
		e.out.u64(uint64(secLen))
		e.out.u8(uint8(len(bands)))
		for _, bs := range bands {
			e.out.u8(bandCodes[bs.band.Name])
			e.out.u8(uint8(len(bs.band.Rates)))
			e.out.u32(bs.groups)
			bs.copyTo(&e.out)
		}
	}
	if err := e.out.flush(); err != nil {
		return e.fail(fmt.Errorf("wire: %w", err))
	}
	return nil
}

// Abort drops the spools of an unfinished file; the output keeps
// whatever was written. It is a no-op after Close.
func (e *Encoder) Abort() {
	if !e.done {
		e.fail(errAborted)
		e.release()
	}
}

var errAborted = errors.New("wire: encoding aborted")

func (e *Encoder) release() {
	e.done = true
	if e.clients != nil {
		e.clients.close()
	}
	for _, bs := range e.bands {
		if bs != nil {
			bs.close()
		}
	}
}

// spool holds one trailing section while the networks stream: an
// unlinked temp file behind a writer, or, with no file, the writer's
// buffer itself.
type spool struct {
	writer
	file *os.File
}

func newSpool(dir string) (*spool, error) {
	if dir == "" {
		return &spool{}, nil
	}
	f, err := os.CreateTemp(dir, ".meshlab-spool-*")
	if err != nil {
		return nil, err
	}
	// Unlinked at once: the open handle keeps the data, and the name can
	// never outlive the process.
	if err := os.Remove(f.Name()); err != nil {
		f.Close()
		return nil, err
	}
	return &spool{writer: writer{w: f, buf: make([]byte, 0, chunkSize+chunkSize/8)}, file: f}, nil
}

// patchU32 overwrites the u32 written at offset off. A flush moves the
// whole buffer, so the four bytes are either all buffered or all in the
// file.
func (s *spool) patchU32(off int64, v uint32) {
	if off >= s.n {
		binary.LittleEndian.PutUint32(s.buf[off-s.n:], v)
		return
	}
	if s.err == nil {
		var b [4]byte
		binary.LittleEndian.PutUint32(b[:], v)
		_, s.err = s.file.WriteAt(b[:], off)
	}
}

// copyTo appends the spool's bytes to w, file to file where the kernel
// allows, without staging them in w's buffer.
func (s *spool) copyTo(w *writer) {
	if w.flush() != nil {
		return
	}
	if s.file == nil {
		_, w.err = w.w.Write(s.buf)
		w.n += int64(len(s.buf))
		return
	}
	if err := s.flush(); err != nil {
		w.err = fmt.Errorf("spool: %w", err)
		return
	}
	if _, err := s.file.Seek(0, io.SeekStart); err != nil {
		w.err = fmt.Errorf("spool: %w", err)
		return
	}
	n, err := io.Copy(w.w, s.file)
	w.n += n
	if err == nil && n != s.n {
		err = fmt.Errorf("spool: copied %d of %d bytes", n, s.n)
	}
	w.err = err
}

func (s *spool) close() {
	if s.file != nil {
		s.file.Close()
	}
	s.buf = nil
}

// bandSpool is one band's part of the flat-sample section: its groups,
// and the reused row each probe set is flattened into.
type bandSpool struct {
	*spool
	band    phy.Band
	groups  uint32
	row     []float64
	countAt int64 // offset of the open group's sample count
	count   uint32
}

func (bs *bandSpool) beginGroup(name string) {
	bs.str(name)
	bs.countAt = bs.size()
	bs.u32(0)
	bs.count = 0
}

// sample flattens one probe set of link l and appends it to the open
// group, unless no rate delivered anything.
func (bs *bandSpool) sample(l *dataset.Link, ps *dataset.ProbeSet) {
	popt, best, ok := snr.FlattenSet(bs.row, ps, bs.band)
	if !ok {
		return
	}
	bs.u16(uint16(l.From))
	bs.u16(uint16(l.To))
	bs.i32(ps.T)
	bs.i16(ps.SNR)
	bs.u8(uint8(popt))
	bs.f64(best)
	for i, tp := range bs.row {
		bs.f64(tp)
		bs.row[i] = 0
	}
	bs.count++
}

func (bs *bandSpool) endGroup() {
	bs.patchU32(bs.countAt, bs.count)
	bs.groups++
}

// WriteV1 encodes the fleet in the legacy MLF1 format: no section flags,
// no record length prefixes, no flat-sample section. It exists so the
// migration path — meshlab.LoadOrGenerateFleet upgrading old caches in
// place — stays testable; new files should use Write.
func WriteV1(out io.Writer, f *dataset.Fleet) error {
	w := &writer{w: out, buf: make([]byte, 0, chunkSize+chunkSize/8)}
	w.bytes(Magic[:])
	encodeMeta(w, f.Meta)
	w.u32(uint32(len(f.Networks)))
	for _, nd := range f.Networks {
		if _, err := recordSize(nd); err != nil {
			return err
		}
		writeNetwork(w, nd, nil)
	}
	w.u32(uint32(len(f.Clients)))
	for _, cd := range f.Clients {
		if err := checkClients(cd); err != nil {
			return err
		}
		writeClients(w, cd)
		w.maybeFlush()
	}
	if err := w.flush(); err != nil {
		return fmt.Errorf("wire: %w", err)
	}
	return nil
}

func encodeMeta(w *writer, m dataset.Meta) {
	w.u64(m.Seed)
	w.i32(m.ProbeDuration)
	w.i32(m.ProbeInterval)
	w.i32(m.ClientDuration)
}

// Fixed field widths of a network record (see docs/FORMAT.md).
const (
	netHeaderBytes = 2 + 1 + 1 + 8 + 4 // name prefix, band, env, spacing, AP count
	apBytes        = 2 + 8 + 8 + 1     // name prefix, x, y, outdoor
	linkBytes      = 2 + 2 + 4         // from, to, set count
	setBytes       = 4 + 2 + 4 + 1     // t, snr, snrStd, obs count
	obsBytes       = 1 + 4             // rate index, loss
)

// recordSize checks nd against every limit of the network record — band
// and environment codes, u16 AP indices, string lengths, the u8
// observation count and the band's rate table — and returns the
// record's byte length (without its length prefix), computed from the
// counts rather than by encoding it. Checks run in record order, so the
// first violation is reported.
func recordSize(nd *dataset.NetworkData) (int64, error) {
	if _, ok := bandCodes[nd.Info.Band]; !ok {
		return 0, fmt.Errorf("wire: unknown band %q", nd.Info.Band)
	}
	phyBand, err := phy.BandByName(nd.Info.Band)
	if err != nil {
		return 0, fmt.Errorf("wire: %w", err)
	}
	nRates := uint8(len(phyBand.Rates))
	if _, ok := envCodes[nd.Info.Env]; !ok {
		return 0, fmt.Errorf("wire: unknown environment %q", nd.Info.Env)
	}
	if len(nd.Info.APs) > math.MaxUint16 {
		return 0, fmt.Errorf("wire: network %s too large", nd.Info.Name)
	}
	if err := checkStr(nd.Info.Name); err != nil {
		return 0, err
	}
	size := int64(netHeaderBytes + len(nd.Info.Name))
	for _, ap := range nd.Info.APs {
		if err := checkStr(ap.Name); err != nil {
			return 0, err
		}
		size += int64(apBytes + len(ap.Name))
	}
	size += 4 // link count
	for _, l := range nd.Links {
		if l.From < 0 || l.From > math.MaxUint16 || l.To < 0 || l.To > math.MaxUint16 {
			return 0, fmt.Errorf("wire: network %s: link %d→%d endpoints do not fit u16",
				nd.Info.Name, l.From, l.To)
		}
		size += linkBytes + setBytes*int64(len(l.Sets))
		for si := range l.Sets {
			obs := l.Sets[si].Obs
			// The format stores the observation count in a u8; reject
			// rather than silently truncating the probe set.
			if len(obs) > math.MaxUint8 {
				return 0, fmt.Errorf("wire: network %s link %d→%d probe set %d: %d observations exceed the format's u8 limit of %d",
					nd.Info.Name, l.From, l.To, si, len(obs), math.MaxUint8)
			}
			for _, o := range obs {
				// Rate indices index the band's rate table; the decoder
				// enforces the same bound, so reject them symmetrically.
				if o.RateIdx >= nRates {
					return 0, fmt.Errorf("wire: network %s link %d→%d: observation rate index %d out of range for band %s (%d rates)",
						nd.Info.Name, l.From, l.To, o.RateIdx, nd.Info.Band, nRates)
				}
			}
			size += obsBytes * int64(len(obs))
		}
	}
	return size, nil
}

// writeNetwork writes one network record, which recordSize has checked:
// header (name, band, env, spacing, AP count), APs, then links. The v2
// framing's length prefix is added by the caller. With a sample spool,
// the network's sample group is written alongside, set by set.
func writeNetwork(w *writer, nd *dataset.NetworkData, bs *bandSpool) {
	w.str(nd.Info.Name)
	w.u8(bandCodes[nd.Info.Band])
	w.u8(envCodes[nd.Info.Env])
	w.f64(nd.Info.Spacing)
	w.u32(uint32(len(nd.Info.APs)))
	for _, ap := range nd.Info.APs {
		w.str(ap.Name)
		w.f64(ap.X)
		w.f64(ap.Y)
		if ap.Outdoor {
			w.u8(1)
		} else {
			w.u8(0)
		}
	}
	if bs != nil {
		bs.beginGroup(nd.Info.Name)
	}
	w.u32(uint32(len(nd.Links)))
	for _, l := range nd.Links {
		w.u16(uint16(l.From))
		w.u16(uint16(l.To))
		w.u32(uint32(len(l.Sets)))
		for si := range l.Sets {
			ps := &l.Sets[si]
			w.i32(ps.T)
			w.i16(ps.SNR)
			w.f32(ps.SNRStd)
			w.u8(uint8(len(ps.Obs)))
			for _, o := range ps.Obs {
				w.u8(o.RateIdx)
				w.f32(o.Loss)
			}
			w.maybeFlush()
			if bs != nil {
				bs.sample(l, ps)
				bs.maybeFlush()
			}
		}
	}
	if bs != nil {
		bs.endGroup()
	}
}

// checkClients checks one client dataset against the client section's
// field limits, in record order.
func checkClients(cd *dataset.ClientData) error {
	if _, ok := envCodes[cd.Env]; !ok {
		return fmt.Errorf("wire: unknown environment %q", cd.Env)
	}
	if cd.NumAPs < 0 || cd.NumAPs > math.MaxUint16 {
		return fmt.Errorf("wire: client dataset %s: AP count %d does not fit u16", cd.Network, cd.NumAPs)
	}
	if err := checkStr(cd.Network); err != nil {
		return err
	}
	for _, cl := range cd.Clients {
		if cl.ID < 0 || int64(cl.ID) > math.MaxUint32 {
			return fmt.Errorf("wire: client dataset %s: client ID %d does not fit u32", cd.Network, cl.ID)
		}
		for _, a := range cl.Assocs {
			if a.AP < 0 || a.AP > math.MaxUint16 {
				return fmt.Errorf("wire: client dataset %s client %d: association AP %d does not fit u16",
					cd.Network, cl.ID, a.AP)
			}
		}
	}
	return nil
}

// writeClients writes one client dataset, which checkClients has checked.
func writeClients(w *writer, cd *dataset.ClientData) {
	w.str(cd.Network)
	w.u8(envCodes[cd.Env])
	w.i32(cd.Duration)
	w.u16(uint16(cd.NumAPs))
	w.u32(uint32(len(cd.Clients)))
	for _, cl := range cd.Clients {
		w.u32(uint32(cl.ID))
		w.u32(uint32(len(cl.Assocs)))
		for _, a := range cl.Assocs {
			w.u16(uint16(a.AP))
			w.i32(a.Start)
			w.i32(a.End)
		}
	}
}
