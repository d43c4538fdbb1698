package experiments

// samplerun.go runs the §4 sample-only experiment population over a
// chunked sample-group stream with no fleet and no materialized samples:
// the population meshanalyze's -sec4 mode executes at table-sized memory.

import (
	"fmt"
	"strings"

	"meshlab/internal/snr"
)

// SampleRun executes sample-only experiments (SampleOnly) over a stream
// of per-network sample groups — typically a wire.Reader SampleGroups
// walk — never materializing the samples: peak memory is the
// accumulators' count/histogram tables plus one in-flight group. It is a
// StreamContext that defers its samples and observes no network, so its
// tables are byte-identical to the same experiments in a full-suite run
// over the same data.
type SampleRun struct{ sc *StreamContext }

// NewSampleRun prepares a chunked run of the given experiment IDs, which
// must all be sample-only (see SampleIDs).
func NewSampleRun(ids []string) (*SampleRun, error) {
	if len(ids) == 0 {
		return nil, fmt.Errorf("experiments: a sample run needs at least one of %s", strings.Join(SampleIDs(), ", "))
	}
	for _, id := range ids {
		if _, ok := byID[id]; !ok {
			return nil, unknownExperiment(id)
		}
		if !SampleOnly(id) {
			return nil, fmt.Errorf("experiments: %s needs the full fleet; a sample run can only execute %s", id, strings.Join(SampleIDs(), ", "))
		}
	}
	sc := NewStreamContext(0, ids...)
	sc.DeferSamples()
	return &SampleRun{sc: sc}, nil
}

// ObserveGroup feeds one network's samples to every experiment in the
// run, fanned across the process worker budget (accumulator states are
// independent, so the results are byte-identical at any budget).
func (r *SampleRun) ObserveGroup(band string, samples []snr.Sample) error {
	return r.sc.ObserveSampleGroup(band, samples)
}

// Finalize renders every experiment in the order the run was built.
func (r *SampleRun) Finalize() ([]*Result, error) {
	r.sc.FinishSamples()
	return r.sc.Finalize()
}
