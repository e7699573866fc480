package main

import (
	"errors"
	"strings"
	"testing"

	"gaugur/internal/sched/fleet"
)

// TestServeDrainSummary: `gaugur serve` may say "drained clean" — the words
// `make serve-smoke` greps for — only of an empty fleet that passed
// CheckInvariants; a fleet stopped with a session in place says how many are
// left and is no error; a broken invariant is the command's error.
func TestServeDrainSummary(t *testing.T) {
	c, err := fleet.New(fleet.Config{NumServers: 8, ShardCount: 2, Mode: fleet.ModeLeastLoaded})
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	pl, ok := c.Place(1)
	if !ok {
		t.Fatal("setup placement failed")
	}
	got, err := drainSummary(c.Stats(), fleet.CheckInvariants(c))
	if err != nil || strings.Contains(got, "drained clean") || !strings.Contains(got, "drained: 1 sessions still active") {
		t.Errorf("one session left in place: %q, %v", got, err)
	}
	c.Remove(pl.Session)
	got, err = drainSummary(c.Stats(), fleet.CheckInvariants(c))
	if err != nil || !strings.HasPrefix(got, "drained clean: placed 1  rejected 0  removed 1") {
		t.Errorf("empty fleet: %q, %v", got, err)
	}
	broken := errors.New("server 3: occupancy ledger 1, actual 0")
	if got, err := drainSummary(c.Stats(), broken); !errors.Is(err, broken) || got != "" {
		t.Errorf("broken invariant: %q, %v — want no summary and the violation as the error", got, err)
	}
}
