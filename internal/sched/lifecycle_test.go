package sched

import (
	"testing"
)

// The lifecycle tick runs at the top of the loop, before the event that
// advances the clock is chosen: every placement in an iteration sees the
// model state the ticker left behind, never a mid-decision swap.
func TestRunOnlineTicksLifecycleBeforeEvents(t *testing.T) {
	ticks := 0
	var lastTick float64 = -1
	cfg := baseCfg()
	cfg.Lifecycle = TickerFunc(func(now float64) {
		ticks++
		if now < lastTick {
			t.Fatalf("lifecycle tick went backwards: %v after %v", now, lastTick)
		}
		lastTick = now
	})
	res, err := runGreedy(cfg, toyScore, nil, toyEval, 60)
	if err != nil {
		t.Fatal(err)
	}
	if ticks == 0 {
		t.Fatal("lifecycle ticker never invoked")
	}
	// Every session arrival and departure is preceded by a tick.
	if ticks < res.Completed+res.Rejected {
		t.Fatalf("ticks %d < events %d: ticker not invoked every iteration", ticks, res.Completed+res.Rejected)
	}
}
