package snr

import "fmt"

// Strategy is an online table-building policy (§4.5, Figure 4.6,
// Table 4.1): how a node keeps its per-link SNR→rate table up to date.
type Strategy int

const (
	// First keeps only the first optimal rate observed at each SNR.
	First Strategy = iota
	// MostRecent keeps only the most recent optimal rate per SNR.
	MostRecent
	// Subsampled keeps counts updated from every third probe set.
	Subsampled
	// All keeps counts over every probe set.
	All
)

// String names the strategy as Table 4.1 does.
func (s Strategy) String() string {
	switch s {
	case First:
		return "first"
	case MostRecent:
		return "most-recent"
	case Subsampled:
		return "subsampled"
	case All:
		return "all"
	default:
		return fmt.Sprintf("Strategy(%d)", int(s))
	}
}

// Strategies lists all online strategies.
var Strategies = []Strategy{First, MostRecent, Subsampled, All}

// StrategyResult aggregates a strategy's replay outcome.
type StrategyResult struct {
	Strategy Strategy
	// Hits[x] and Total[x] count correct and total predictions made when
	// a link had already seen x probe sets (x ∈ [1, len-1]; index 0 is
	// unused because no prediction is attempted with no history).
	Hits, Total []int
	// Updates is the number of table writes performed.
	Updates int
	// MemEntries is the number of data points retained at the end.
	MemEntries int
	// Skipped counts predictions skipped for lack of data at the SNR.
	Skipped int
}

// Accuracy returns the hit fraction at history length x, or -1 when no
// prediction was made there.
func (r *StrategyResult) Accuracy(x int) float64 {
	if x < 0 || x >= len(r.Total) || r.Total[x] == 0 {
		return -1
	}
	return float64(r.Hits[x]) / float64(r.Total[x])
}

// OverallAccuracy returns the hit fraction over all predictions.
func (r *StrategyResult) OverallAccuracy() float64 {
	h, t := 0, 0
	for i := range r.Total {
		h += r.Hits[i]
		t += r.Total[i]
	}
	if t == 0 {
		return -1
	}
	return float64(h) / float64(t)
}

// ReplayStrategies replays every link's probe sets in time order through
// each strategy, predicting before updating (Figure 4.6). maxX caps the
// history-length axis; longer histories accumulate into the last bucket.
// It is the batch form of StrategyAccum: links never span networks and
// every reported field is an integer sum over per-link replays, so the
// per-network-group fold produces identical results. Like Penalty, it
// requires the samples in Flatten order (networks contiguous, links
// contiguous within them) — a link split across non-adjacent runs would
// restart its online table mid-sequence.
func ReplayStrategies(samples []Sample, numRates, maxX int) []StrategyResult {
	acc := NewStrategyAccum(numRates, maxX)
	_ = ForEachSampleGroup(samples, func(group []Sample) error {
		acc.ObserveGroup(NewGroupView(group))
		return nil
	})
	return acc.Finalize()
}
