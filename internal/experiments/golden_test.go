package experiments

import (
	"fmt"
	"os"
	"path/filepath"
	"testing"

	"surfbless/internal/simcache"
)

// TestFig5GoldenCSVCached regenerates the committed Fig. 5(a) CSV
// through the cached path and proves three things at once: the quick
// scale still reproduces the committed bytes, the cache-populating
// first pass (all misses — i.e. the uncached computation) and the
// all-hit second pass emit identical output, and the second pass runs
// zero new simulations.
func TestFig5GoldenCSVCached(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale Fig 5 (≈15 s)")
	}
	golden, err := os.ReadFile(filepath.Join("..", "..", "results",
		"fig5_fig_5_a_victim_avg_packet_latency_cycles_vs_inte.csv"))
	if err != nil {
		t.Fatal(err)
	}
	c, err := simcache.New(simcache.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	SetCache(c)
	defer SetCache(nil)

	// EXPERIMENTS.md: the committed results were produced at -scale quick.
	r1, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	first := r1.Tables()[0].CSV()
	if first != string(golden) {
		t.Errorf("regenerated Fig 5(a) CSV diverges from results/:\n got: %q\nwant: %q", first, golden)
	}
	cold := c.Stats()
	if cold.Hits != 0 || cold.Misses == 0 {
		t.Fatalf("first pass should be all misses, got %+v", cold)
	}

	r2, err := Fig5(Quick())
	if err != nil {
		t.Fatal(err)
	}
	warm := c.Stats()
	if warm.Misses != cold.Misses {
		t.Errorf("second pass ran %d new simulations", warm.Misses-cold.Misses)
	}
	if warm.Hits != cold.Misses {
		t.Errorf("second pass had %d hits, want %d (one per simulation)", warm.Hits, cold.Misses)
	}
	if warm.Corrupt != 0 {
		t.Errorf("%d corrupt entries on a fresh cache", warm.Corrupt)
	}
	if second := r2.Tables()[0].CSV(); second != first {
		t.Errorf("cache-on output diverges from cache-off output:\n hit: %q\nmiss: %q", second, first)
	}
}

// TestAppsGoldenCSV pins the full-system results to bytes: it
// regenerates Figs 8–10 at the quick scale the committed results were
// produced at and compares each table with its CSV under results/.
func TestAppsGoldenCSV(t *testing.T) {
	if testing.Short() {
		t.Skip("quick-scale Figs 8–10 (≈16 s)")
	}
	r, err := Apps(Quick())
	if err != nil {
		t.Fatal(err)
	}
	for i, tab := range r.Tables() {
		fig := 8 + i
		paths, err := filepath.Glob(filepath.Join("..", "..", "results", fmt.Sprintf("apps_fig_%d_*.csv", fig)))
		if err != nil || len(paths) != 1 {
			t.Fatalf("Fig %d: want one committed CSV, found %v (%v)", fig, paths, err)
		}
		golden, err := os.ReadFile(paths[0])
		if err != nil {
			t.Fatal(err)
		}
		if got := tab.CSV(); got != string(golden) {
			t.Errorf("regenerated Fig %d CSV diverges from %s:\n got: %q\nwant: %q", fig, paths[0], got, golden)
		}
	}
}
