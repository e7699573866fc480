package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gaugur/internal/core"
	"gaugur/internal/profile"
	"gaugur/internal/sim"
)

func testLab(t *testing.T) *core.Lab {
	t.Helper()
	catalog := sim.NewCatalog(42)
	server := sim.NewServer(7)
	pf := &profile.Profiler{Server: server, Repeats: 1}
	set, err := pf.ProfileCatalog(catalog)
	if err != nil {
		t.Fatal(err)
	}
	lab, err := core.NewLab(server, catalog, set)
	if err != nil {
		t.Fatal(err)
	}
	return lab
}

func TestParseColocation(t *testing.T) {
	lab := testLab(t)
	c, err := parseColocation(lab, "Dota2@1920x1080, Far Cry4@1280x720")
	if err != nil {
		t.Fatal(err)
	}
	if len(c) != 2 {
		t.Fatalf("parsed %d workloads", len(c))
	}
	if c[0].Res != sim.Res1080p || c[1].Res != sim.Res720p {
		t.Errorf("resolutions wrong: %v %v", c[0].Res, c[1].Res)
	}
	if lab.Catalog.Games[c[0].GameID].Name != "Dota2" {
		t.Error("game resolution wrong")
	}

	// Default resolution when omitted.
	c, err = parseColocation(lab, "Dota2")
	if err != nil {
		t.Fatal(err)
	}
	if c[0].Res != core.ReferenceResolution {
		t.Errorf("default resolution = %v", c[0].Res)
	}

	// Errors.
	if _, err := parseColocation(lab, "NoSuchGame"); err == nil {
		t.Error("unknown game should fail")
	}
	if _, err := parseColocation(lab, "Dota2@huge"); err == nil {
		t.Error("bad resolution should fail")
	}
	if _, err := parseColocation(lab, " ,, "); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestResolveGames(t *testing.T) {
	lab := testLab(t)
	ids, err := resolveGames(lab, "Dota2, 5, Borderland2")
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 3 {
		t.Fatalf("resolved %d games", len(ids))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Error("ids must be sorted")
		}
	}
	if _, err := resolveGames(lab, "99999"); err == nil {
		t.Error("out-of-range id should fail")
	}
	if _, err := resolveGames(lab, ""); err == nil {
		t.Error("empty spec should fail")
	}
}

func TestProfileTrainPredictRoundTripOnDisk(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	dir := t.TempDir()
	profiles := filepath.Join(dir, "profiles.json")
	model := filepath.Join(dir, "model.gob")

	if err := cmdProfile([]string{"-out", profiles}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{
		"-profiles", profiles, "-out", model,
		"-pairs", "60", "-triples", "15", "-quads", "15",
		"-rm", "DTR", "-cm", "DTC", // fast kinds for the smoke test
	}); err != nil {
		t.Fatal(err)
	}
	// predict writes to stdout; just verify it runs.
	old := os.Stdout
	r, w, _ := os.Pipe()
	os.Stdout = w
	err := cmdPredict([]string{"-profiles", profiles, "-model", model, "-coloc", "Dota2,Borderland2"})
	w.Close()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("Dota2")) {
		t.Errorf("predict output missing game name:\n%s", buf.String())
	}

	// fleet: a tiny sharded flash-crowd run from the same saved artifacts.
	r, w, _ = os.Pipe()
	os.Stdout = w
	err = cmdFleet([]string{
		"-profiles", profiles, "-model", model, "-games", "Dota2,Borderland2",
		"-servers", "64", "-shards", "4", "-horizon", "6",
		"-crowd-at", "2", "-crowd-duration", "2",
	})
	w.Close()
	os.Stdout = old
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("placed")) {
		t.Errorf("fleet output missing placement summary:\n%s", buf.String())
	}
}
