package main

import (
	"os"
	"path/filepath"
	"testing"
)

// TestCommandGoldens pins, byte for byte, what the churn-style commands and
// dispatch -compare print on the small model trainedArtifacts builds. Each
// run is a function of its seeds and the saved artifacts alone, so any
// difference is a behaviour change in the glue between the world, the
// event loop and the placement engine — never noise.
func TestCommandGoldens(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	profiles, model := trainedArtifacts(t)
	for _, tc := range []struct {
		name string
		run  func([]string) error
		args []string
	}{
		{"churn", cmdChurn, []string{"-games", "1,2,3,4,5", "-servers", "30", "-sessions", "300"}},
		{"faults", cmdFaults, []string{"-games", "1,2,3,4,5", "-servers", "30", "-sessions", "300", "-dropout-rate", "0.6"}},
		{"lifecycle", cmdLifecycle, []string{"-games", "1,2,3,4,5", "-servers", "20", "-sessions", "1500"}},
		{"dispatch", cmdDispatch, []string{"-games", "1,2,3,4,5,6,7,8,9,10", "-requests", "1000", "-servers", "400", "-compare"}},
		{"fleet", cmdFleet, []string{"-games", "Dota2,Borderland2,Far Cry4", "-servers", "256", "-shards", "4", "-horizon", "8", "-crowd-at", "2", "-crowd-duration", "2"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			args := append([]string{"-profiles", profiles, "-model", model}, tc.args...)
			got := captureStdout(t, func() error { return tc.run(args) })
			want, err := os.ReadFile(filepath.Join("testdata", tc.name+".golden"))
			if err != nil {
				t.Fatal(err)
			}
			if got != string(want) {
				t.Errorf("gaugur %s output moved:\n--- got\n%s--- want\n%s", tc.name, got, want)
			}
		})
	}
}
