package experiments

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"inpg/internal/analytic"
	"inpg/internal/manifest"
)

// TestPrescreenLevelsSelection exercises the pure selection pass on a
// hand-built estimate grid: a mechanism crossover and a serialization
// boundary must be bracketed, the cap must hold, and the choice must be
// deterministic and ladder-ordered.
func TestPrescreenLevelsSelection(t *testing.T) {
	levels := []int{100, 200, 400, 800, 1600, 3200}
	est := make([][]analytic.Estimate, len(levels))
	for i := range est {
		est[i] = make([]analytic.Estimate, 4)
		for m := range est[i] {
			est[i][m] = analytic.Estimate{Runtime: 1000, Contended: i < 2}
		}
		// Original wins at low contention, iNPG+OCOR at high: crossover
		// between rungs 2 and 3.
		if i >= 3 {
			est[i][3].Runtime = 500
		} else {
			est[i][0].Runtime = 900
		}
	}
	sel := PrescreenLevels(levels, est)
	if want := len(levels) / 3; len(sel.Selected) != want {
		t.Fatalf("selected %d levels, want exactly %d", len(sel.Selected), want)
	}
	for i := 1; i < len(sel.Selected); i++ {
		if sel.Selected[i] <= sel.Selected[i-1] {
			t.Fatalf("selection not ascending: %v", sel.Selected)
		}
	}
	// The crossover pair (2,3) outranks everything else here.
	if sel.Selected[0] != 2 || sel.Selected[1] != 3 {
		t.Errorf("selected %v, want the crossover pair [2 3]; scores %v", sel.Selected, sel.Score)
	}
	if r := sel.Reason(3); !strings.Contains(r, "crossover") {
		t.Errorf("rung 3 reason %q should name the crossover", r)
	}
	if r := sel.Reason(1); !strings.Contains(r, "serialization") {
		t.Errorf("rung 1 reason %q should name the serialization boundary", r)
	}

	again := PrescreenLevels(levels, est)
	if len(again.Selected) != len(sel.Selected) {
		t.Fatalf("selection not deterministic")
	}
	for i := range sel.Selected {
		if again.Selected[i] != sel.Selected[i] {
			t.Fatalf("selection not deterministic: %v vs %v", sel.Selected, again.Selected)
		}
	}
}

// TestPreByteIdenticalAndEstimates is the acceptance pin for the hybrid
// sweep: the pre-screened run renders byte-for-byte what the exhaustive
// run renders while simulating at most a third of the cells, and every
// skipped cell is covered by a valid estimate manifest alongside the
// selected cells' run manifests.
func TestPreByteIdenticalAndEstimates(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the quick contention ladder twice")
	}
	o := Options{Scale: 0.05, Seed: 42, Quick: true}
	ex, err := RunPre(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if ex.SimCells != ex.TotalCells {
		t.Errorf("exhaustive mode simulated %d of %d cells, want all", ex.SimCells, ex.TotalCells)
	}

	op := o
	op.ManifestDir = t.TempDir()
	pre, err := RunPre(op, true)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := pre.Render(), ex.Render(); got != want {
		t.Errorf("pre-screened render differs from exhaustive:\n--- exhaustive ---\n%s--- prescreened ---\n%s", want, got)
	}
	if pre.SimCells*3 > pre.TotalCells {
		t.Errorf("pre-screening simulated %d of %d cells; want at least a 3x reduction", pre.SimCells, pre.TotalCells)
	}

	// Skipped cells carry estimate manifests, selected cells run
	// manifests; together they cover the grid exactly.
	entries, err := os.ReadDir(op.ManifestDir)
	if err != nil {
		t.Fatal(err)
	}
	runs, ests := 0, 0
	for _, e := range entries {
		path := filepath.Join(op.ManifestDir, e.Name())
		switch {
		case strings.HasPrefix(e.Name(), "manifest-pre-"):
			runs++
		case strings.HasPrefix(e.Name(), "estimate-pre-"):
			ests++
			m, err := manifest.ReadFile(path)
			if err != nil {
				t.Fatalf("%s: %v", path, err)
			}
			if m.Kind != manifest.EstimateKind || m.Status != manifest.StatusEstimated {
				t.Errorf("%s: kind=%q status=%q, want estimate/estimated", path, m.Kind, m.Status)
			}
			if m.Estimate.Reason == "" || len(m.Estimate.Bounds) == 0 {
				t.Errorf("%s: estimate record missing reason or bounds", path)
			}
		default:
			t.Errorf("unexpected artifact %s", e.Name())
		}
	}
	if runs != pre.SimCells {
		t.Errorf("%d run manifests, want %d (one per simulated cell)", runs, pre.SimCells)
	}
	if ests != pre.TotalCells-pre.SimCells {
		t.Errorf("%d estimate manifests, want %d (one per skipped cell)", ests, pre.TotalCells-pre.SimCells)
	}
}

// TestAutoShardsResolution pins the -shards 0 auto mode: the classic
// single-threaded engine on every mesh, 16×16 included, while explicit
// counts pass through.
func TestAutoShardsResolution(t *testing.T) {
	if got := resolvedShards(0, 8, 8); got != 1 {
		t.Errorf("auto shards on 8x8 = %d, want 1", got)
	}
	if got := resolvedShards(3, 8, 8); got != 3 {
		t.Errorf("explicit shard count must pass through, got %d", got)
	}
	if got := resolvedShards(0, 16, 16); got != 1 {
		t.Errorf("auto shards on 16x16 = %d, want 1", got)
	}
}
