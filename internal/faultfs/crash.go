package faultfs

// crash.go adds process-crash injection on the checkpoint write path.
// Where faultfs.go's Injector simulates flaky storage under reads, a
// CrashPlan simulates the process dying at a chosen phase of a durable
// write — including the nastiest variant, a torn file that made it past
// rename. The checkpoint writer (internal/checkpoint.Save via
// internal/atomicio) exposes its phases through a hook; a CrashPlan is
// that hook.

import (
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
)

// ErrKilled marks an injected process kill. The shard runner treats a
// checkpoint failure wrapping it as fatal-for-this-process, which is the
// point: the test then starts a fresh run with Resume set, exactly like
// an operator restarting after a crash.
var ErrKilled = errors.New("faultfs: injected kill")

// CrashPlan kills the process-under-test at one durable-write phase.
// Phases, in write order: "mid-snapshot" (manifest written, state
// section not yet), "post-temp-write" (temp complete, not fsynced),
// "pre-rename" (temp durable, not yet visible), "mid-rename" (the torn
// case: the visible file is corrupted, then the kill lands after rename
// — simulating a crash mid-way through the rename's disk update).
//
// The zero value is inert. A CrashPlan fires at most once; it is safe
// for concurrent use by parallel shard workers (whichever worker reaches
// the kill point first takes the hit — for "mid-rename", the worker whose
// file was torn).
type CrashPlan struct {
	mu sync.Mutex
	// KillAt is the phase that triggers the kill ("" disables).
	KillAt string
	// Skip ignores the first Skip occurrences of KillAt, so a test can
	// target the Nth checkpoint and exercise generation fallback.
	Skip int
	// Torn bounds the tail truncation applied in the mid-rename case
	// (min 1 byte). Ignored when TornXOR is set.
	Torn int
	// TornXOR, when non-zero, flips the file's last byte with this mask
	// instead of truncating — a bit-rot tear rather than a short write.
	TornXOR byte

	hits     int
	tornTemp string // set once the mid-rename tear landed on this temp file
	fired    bool
}

// Hook is the atomicio.Hook/checkpoint seam: pass plan.Hook as the
// checkpoint hook. It returns ErrKilled at the planned phase.
func (p *CrashPlan) Hook(phase, path string) error {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.fired || p.KillAt == "" {
		return nil
	}
	if p.tornTemp != "" {
		// The tear landed; let that file's rename complete, then kill its
		// writer. atomicio names a temp file after its final path, so
		// another worker's rename in between is told apart by path and
		// does not take the hit: the torn writer must not carry on past
		// its tear and write a newer generation.
		if phase == "renamed" && strings.HasPrefix(p.tornTemp, path+".tmp-") {
			p.fired = true
			return fmt.Errorf("%w (torn at %s)", ErrKilled, p.KillAt)
		}
		return nil
	}
	if phase != p.KillAt {
		return nil
	}
	p.hits++
	if p.hits <= p.Skip {
		return nil
	}
	if phase == "mid-rename" {
		// Corrupt the about-to-be-renamed temp so the post-crash file
		// exists but fails its checksum, then arm the kill for after the
		// rename completes.
		if err := p.tear(path); err != nil {
			return err
		}
		p.tornTemp = path
		return nil
	}
	p.fired = true
	return fmt.Errorf("%w (at %s)", ErrKilled, phase)
}

// tear damages the file's tail: truncation (short write) or an XOR flip
// (bit rot), per the plan's Torn/TornXOR knobs.
func (p *CrashPlan) tear(path string) error {
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	size := info.Size()
	if p.TornXOR != 0 {
		f, err := os.OpenFile(path, os.O_RDWR, 0)
		if err != nil {
			return err
		}
		defer f.Close()
		if size == 0 {
			return nil
		}
		b := make([]byte, 1)
		if _, err := f.ReadAt(b, size-1); err != nil {
			return err
		}
		b[0] ^= p.TornXOR
		_, err = f.WriteAt(b, size-1)
		return err
	}
	cut := int64(p.Torn)
	if cut < 1 {
		cut = 1
	}
	if cut > size {
		cut = size
	}
	return os.Truncate(path, size-cut)
}

// Fired reports whether the kill landed — tests assert the scenario
// actually exercised its crash point.
func (p *CrashPlan) Fired() bool {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.fired
}
