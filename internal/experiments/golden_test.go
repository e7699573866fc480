package experiments

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// TestFig7bGolden pins, byte for byte, the paper-scale Fig. 7b table that
// EXPERIMENTS.md quotes. The driver is a function of DefaultConfig's seeds
// alone, so a moved byte means the RM, the baselines or the samples they
// are scored on changed, and EXPERIMENTS.md moves with the golden.
func TestFig7bGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("builds the paper-scale environment")
	}
	e, err := New(DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	var got bytes.Buffer
	if err := RunAndRender(e, "fig7b", &got); err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "fig7b.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("fig7b output moved:\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
