package experiments

import (
	"strconv"
	"testing"
)

// ablCell parses the named column of the named variant row.
func ablCell(t *testing.T, res *Result, variant string, col int) float64 {
	t.Helper()
	row := findRow(t, res, variant)
	v, err := strconv.ParseFloat(row[col], 64)
	if err != nil {
		t.Fatalf("%s/%s col %d: %q not a number", res.ID, variant, col, row[col])
	}
	return v
}

func TestAblationOffsets(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations generate fleets")
	}
	res := runExp(t, "abl4.off")
	defGap := ablCell(t, res, "default", 3)
	noGap := ablCell(t, res, "no-offsets", 3)
	if noGap >= defGap {
		t.Fatalf("removing offsets should shrink the link-over-global advantage: %v → %v", defGap, noGap)
	}
	if defGap < 0.05 {
		t.Fatalf("default link-over-global advantage %v too small to ablate meaningfully", defGap)
	}
}

func TestAblationBursts(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations generate fleets")
	}
	res := runExp(t, "abl4.burst")
	withBursts := ablCell(t, res, "default", 2)
	without := ablCell(t, res, "no-bursts", 2)
	if without >= withBursts {
		t.Fatalf("removing bursts should reduce optimal-rate churn: %v → %v", withBursts, without)
	}
}

func TestAblationSymmetry(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations generate fleets")
	}
	res := runExp(t, "abl5.sym")
	defAsym := ablCell(t, res, "default", 1)
	symAsym := ablCell(t, res, "symmetric", 1)
	if symAsym >= defAsym*0.7 {
		t.Fatalf("disabling asymmetry should collapse measured asymmetry: %v → %v", defAsym, symAsym)
	}
	// The ETX2−ETX1 gap must not widen when asymmetry is removed (much
	// of the gap comes from ETX2's squared link costs and survives).
	defGap := ablCell(t, res, "default", 4)
	symGap := ablCell(t, res, "symmetric", 4)
	if symGap > defGap*1.15+0.02 {
		t.Fatalf("removing asymmetry should not widen the ETX2−ETX1 gap: %v → %v", defGap, symGap)
	}
}

func TestAblationFleetCached(t *testing.T) {
	// The cache is process-wide: repeated requests — even across
	// runs — must return the same fleet instance.
	a, err := ablationFleet("default")
	if err != nil {
		t.Fatal(err)
	}
	b, err := ablationFleet("default")
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Fatal("ablation fleet not cached")
	}
}
