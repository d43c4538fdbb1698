package meshlab

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"

	"meshlab/internal/dataset"
	"meshlab/internal/leakcheck"
)

// shortQuickOptions is the quick fleet with a one-hour probe window: the
// same 12 networks, cheap enough to synthesize many times.
func shortQuickOptions(seed uint64, workers int) Options {
	opts := QuickOptions(seed)
	opts.Probe.Duration = 3600
	opts.Workers = workers
	return opts
}

// TestGenerateDatasetMatchesSave: streaming synthesis writes the bytes of
// saving the materialized fleet, in all three output forms and at any
// worker count, and reports the fleet's counts.
func TestGenerateDatasetMatchesSave(t *testing.T) {
	fleet, err := GenerateFleet(shortQuickOptions(21, 1))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	for _, c := range []struct {
		name    string
		samples bool
		save    func(string, *Fleet) error
	}{
		{"fleet.bin", false, SaveFleet},
		{"fleet-samples.bin", true, SaveFleetWithSamples},
		{"fleet.jsonl", false, SaveFleet},
	} {
		want := filepath.Join(dir, "want-"+c.name)
		if err := c.save(want, fleet); err != nil {
			t.Fatal(err)
		}
		wantSum, err := saveDataset(os.DevNull, fleetSource(fleet), false, nil)
		if err != nil {
			t.Fatal(err)
		}
		wantBytes, err := os.ReadFile(want)
		if err != nil {
			t.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			got := filepath.Join(dir, fmt.Sprintf("got%d-%s", workers, c.name))
			sum, err := GenerateDataset(got, shortQuickOptions(21, workers), c.samples)
			if err != nil {
				t.Fatal(err)
			}
			gotBytes, err := os.ReadFile(got)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(gotBytes, wantBytes) {
				t.Fatalf("%s, workers=%d: streamed %d bytes differ from the saved fleet's %d", c.name, workers, len(gotBytes), len(wantBytes))
			}
			if sum != wantSum {
				t.Fatalf("%s: summary %+v, fleet has %+v", c.name, sum, wantSum)
			}
		}
	}
}

// failingSink fails on the k-th network dataset it receives, counting
// from 0.
type failingSink struct {
	k, n int
	err  error
}

func (s *failingSink) network(*dataset.NetworkData) error {
	s.n++
	if s.n-1 == s.k {
		return s.err
	}
	return nil
}

func (s *failingSink) clients(*dataset.ClientData) error { return nil }

// TestGenerateDatasetFailureMidStream: a write that fails at the k-th
// network returns that error, joins every goroutine, and leaves nothing
// in the output directory — no torn output, no temp file, no spool.
func TestGenerateDatasetFailureMidStream(t *testing.T) {
	for _, workers := range []int{1, 2, 4} {
		for _, k := range []int{0, 1, 5, 11} {
			t.Run(fmt.Sprintf("workers=%d/k=%d", workers, k), func(t *testing.T) {
				before := leakcheck.Take()
				dir := t.TempDir()
				boom := errors.New("write failed")
				src, err := generatorSource(shortQuickOptions(22, workers))
				if err != nil {
					t.Fatal(err)
				}
				_, err = saveDataset(filepath.Join(dir, "out.bin"), src, true, &failingSink{k: k, err: boom})
				if !errors.Is(err, boom) {
					t.Fatalf("got %v, want the injected failure", err)
				}
				if err := before.Check(time.Second); err != nil {
					t.Fatal(err)
				}
				if left, _ := os.ReadDir(dir); len(left) != 0 {
					t.Fatalf("files left behind: %v", left)
				}
			})
		}
	}
}

// TestSaveFleetFailureKeepsPreviousFile: an encode error on the last
// network, after the rest of the file has streamed out, leaves the file
// already at the path byte-for-byte untouched, in every output form.
func TestSaveFleetFailureKeepsPreviousFile(t *testing.T) {
	good, err := GenerateFleet(shortQuickOptions(23, 0))
	if err != nil {
		t.Fatal(err)
	}
	bad := *good
	bad.Networks = append([]*dataset.NetworkData(nil), good.Networks...)
	last := *bad.Networks[len(bad.Networks)-1]
	last.Info.Spacing = math.NaN() // JSON cannot encode it
	last.Links = append(last.Links[:len(last.Links):len(last.Links)], &dataset.Link{From: 0, To: 1, Sets: []dataset.ProbeSet{
		{T: 1, Obs: []dataset.Obs{{RateIdx: 200}}}, // no band has rate index 200
	}})
	bad.Networks[len(bad.Networks)-1] = &last

	dir := t.TempDir()
	for _, c := range []struct {
		name string
		save func(string, *Fleet) error
	}{
		{"plain.bin", SaveFleet},
		{"samples.bin", SaveFleetWithSamples},
		{"fleet.jsonl", SaveFleet},
	} {
		path := filepath.Join(dir, c.name)
		if err := c.save(path, good); err != nil {
			t.Fatal(err)
		}
		prev, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.save(path, &bad); err == nil {
			t.Fatalf("%s: saving a fleet with a bad network succeeded", c.name)
		}
		now, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(now, prev) {
			t.Fatalf("%s: a failed save changed the file at the path", c.name)
		}
	}
	if left, _ := os.ReadDir(dir); len(left) != 3 {
		t.Fatalf("want only the three outputs, found %v", left)
	}
}

// TestSaveFleetToDevice: a device at the path cannot be replaced by a
// rename, so it is written in place.
func TestSaveFleetToDevice(t *testing.T) {
	fleet, err := GenerateFleet(shortQuickOptions(24, 0))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFleet(os.DevNull, fleet); err != nil {
		t.Fatal(err)
	}
	if info, err := os.Stat(os.DevNull); err != nil || info.Mode().IsRegular() {
		t.Fatalf("%s is no longer a device: %v, %v", os.DevNull, info, err)
	}
}
