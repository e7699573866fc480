package experiments

import (
	"bytes"
	"runtime"
	"strconv"
	"strings"
	"testing"
)

// The extension and ablation drivers are heavier than the figure drivers,
// so each gets a focused shape test against the shared quick environment.

func cell(t *testing.T, tab *Table, row, col int) string {
	t.Helper()
	if row >= len(tab.Rows) || col >= len(tab.Rows[row]) {
		t.Fatalf("%s: no cell (%d,%d)", tab.ID, row, col)
	}
	return tab.Rows[row][col]
}

func cellFloat(t *testing.T, tab *Table, row, col int) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(cell(t, tab, row, col), 64)
	if err != nil {
		t.Fatalf("%s: cell (%d,%d) = %q is not numeric", tab.ID, row, col, cell(t, tab, row, col))
	}
	return v
}

func TestExtConservativeReducesTemporaryViolations(t *testing.T) {
	tab := runFig(t, "ext-conservative")
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tab.Rows))
	}
	meanViol := cellFloat(t, tab, 0, 2)
	consViol := cellFloat(t, tab, 1, 2)
	if consViol > meanViol {
		t.Errorf("conservative profiling should not increase temporary violations: %v vs %v", consViol, meanViol)
	}
}

func TestExtEncoderKeepsAccuracy(t *testing.T) {
	tab := runFig(t, "ext-encoder")
	offErr := cellFloat(t, tab, 0, 1)
	onErr := cellFloat(t, tab, 1, 1)
	if onErr > offErr*1.5 {
		t.Errorf("re-profiled encoder world should not blow up RM error: %v vs %v", onErr, offErr)
	}
	offFPS := cellFloat(t, tab, 0, 2)
	onFPS := cellFloat(t, tab, 1, 2)
	if onFPS > offFPS {
		t.Errorf("encoding overhead should not raise pair FPS: %v vs %v", onFPS, offFPS)
	}
}

func TestExtDelayBeatsNaive(t *testing.T) {
	tab := runFig(t, "ext-delay")
	modelErr := cellFloat(t, tab, 0, 1)
	naiveErr := cellFloat(t, tab, 1, 1)
	if modelErr >= naiveErr {
		t.Errorf("trained delay model (%v) should beat the solo-delay estimate (%v)", modelErr, naiveErr)
	}
}

func TestExtCFCheaperAndReasonable(t *testing.T) {
	tab := runFig(t, "ext-cf")
	fullRuns := cellFloat(t, tab, 0, 1)
	cfRuns := cellFloat(t, tab, 1, 1)
	if cfRuns*4 > fullRuns {
		t.Errorf("CF onboarding (%v runs) should be at least 4x cheaper than full (%v)", cfRuns, fullRuns)
	}
	fullErr := cellFloat(t, tab, 0, 2)
	cfErr := cellFloat(t, tab, 1, 2)
	if cfErr > fullErr*2.5 {
		t.Errorf("CF profiles cost too much accuracy: %v vs %v", cfErr, fullErr)
	}
}

func TestExtChurnRowsAndBounds(t *testing.T) {
	tab := runFig(t, "ext-churn")
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 policies, got %d", len(tab.Rows))
	}
	for i := range tab.Rows {
		fps := cellFloat(t, tab, i, 1)
		viol := cellFloat(t, tab, i, 2)
		if fps <= 0 {
			t.Errorf("policy %d: non-positive mean FPS", i)
		}
		if viol < 0 || viol > 1 {
			t.Errorf("policy %d: violation fraction %v out of range", i, viol)
		}
	}
}

func TestExtFaultsMigrationRecovers(t *testing.T) {
	tab := runFig(t, "ext-faults")
	if len(tab.Rows) != 5 {
		t.Fatalf("want 5 rows, got %d", len(tab.Rows))
	}
	// Rows: 0 no-faults reference, 1 migrating aware, 2 fallback chain,
	// 3 migration disabled, 4 blind least-loaded.
	for i := range tab.Rows {
		fps := cellFloat(t, tab, i, 1)
		viol := cellFloat(t, tab, i, 2)
		if fps <= 0 {
			t.Errorf("row %d: non-positive mean FPS", i)
		}
		if viol < 0 || viol > 1 {
			t.Errorf("row %d: violation fraction %v out of range", i, viol)
		}
	}
	if m := cellFloat(t, tab, 1, 3); m == 0 {
		t.Error("migrating policy should rescue orphans under the crash schedule")
	}
	if d := cellFloat(t, tab, 1, 4); d > cellFloat(t, tab, 3, 4) {
		t.Error("migration should not drop more sessions than no migration")
	}
	if cellFloat(t, tab, 3, 3) != 0 {
		t.Error("migration-disabled row must not migrate")
	}
	if cellFloat(t, tab, 3, 4) == 0 {
		t.Error("migration-disabled row should drop the crash orphans")
	}
	// The migrating interference-aware policy recovers: mean FPS within a
	// few percent of the fault-free reference, and less QoS-violating time
	// than the interference-blind policy under the same faults.
	if ref, aware := cellFloat(t, tab, 0, 1), cellFloat(t, tab, 1, 1); aware < 0.9*ref {
		t.Errorf("migrating aware policy (%v FPS) should recover to near the fault-free run (%v)", aware, ref)
	}
	awareViol := cellFloat(t, tab, 1, 2)
	blindViol := cellFloat(t, tab, 4, 2)
	if awareViol >= blindViol {
		t.Errorf("aware policy under faults (%v) should stay below blind (%v)", awareViol, blindViol)
	}
}

// TestExtFaultsReplays: the fallback-chain row scores through a stateful
// scorer — the breaker's cooldown counts queries — which the cluster calls
// from a shard goroutine with each probe's uncached states. The whole table,
// that row and the chain's served-by-stage totals in its note included, must
// still be a function of the seeds alone, on one core or two.
func TestExtFaultsReplays(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for i, procs := range []int{1, 2, 2, 1} {
		runtime.GOMAXPROCS(procs)
		var buf bytes.Buffer
		runFig(t, "ext-faults").Render(&buf)
		if !strings.Contains(buf.String(), "fallback chain served") {
			t.Fatalf("table carries no served totals:\n%s", buf.String())
		}
		if i == 0 {
			first = buf.String()
		} else if buf.String() != first {
			t.Fatalf("run %d (GOMAXPROCS %d) differs from the first:\n%s\nvs\n%s", i, procs, buf.String(), first)
		}
	}
}

func TestExtHeteroPerClassWins(t *testing.T) {
	tab := runFig(t, "ext-hetero")
	if len(tab.Rows) != 4 {
		t.Fatalf("want 4 rows (2 classes x 2 strategies), got %d", len(tab.Rows))
	}
	// Rows come in (naive, per-class) pairs per class.
	for i := 0; i < len(tab.Rows); i += 2 {
		naive := cellFloat(t, tab, i, 2)
		perClass := cellFloat(t, tab, i+1, 2)
		if perClass >= naive {
			t.Errorf("%s: per-class pipeline (%v) should beat naive transfer (%v)",
				cell(t, tab, i, 0), perClass, naive)
		}
	}
}

func TestAblationDrivers(t *testing.T) {
	if testing.Short() {
		t.Skip("ablations are heavy")
	}
	agg := runFig(t, "abl-aggregate")
	if len(agg.Rows) != 3 {
		t.Fatalf("abl-aggregate rows = %d", len(agg.Rows))
	}
	// Count-only must be clearly worse than Eq.5.
	eq5 := cellFloat(t, agg, 0, 2)
	countOnly := cellFloat(t, agg, 2, 2)
	if countOnly <= eq5 {
		t.Errorf("count-only encoding (%v) should lose to Eq.5 (%v)", countOnly, eq5)
	}

	logTab := runFig(t, "abl-log")
	withLog := cellFloat(t, logTab, 0, 1)
	withoutLog := cellFloat(t, logTab, 1, 1)
	if withLog >= withoutLog {
		t.Errorf("log target (%v) should beat raw (%v)", withLog, withoutLog)
	}

	kTab := runFig(t, "abl-k")
	if len(kTab.Rows) != 4 {
		t.Fatalf("abl-k rows = %d", len(kTab.Rows))
	}

	nTab := runFig(t, "abl-noise")
	if len(nTab.Rows) != 5 {
		t.Fatalf("abl-noise rows = %d", len(nTab.Rows))
	}
	// Error should be higher at the noisiest setting than with no noise.
	clean := cellFloat(t, nTab, 0, 1)
	noisy := cellFloat(t, nTab, len(nTab.Rows)-1, 1)
	if noisy <= clean {
		t.Errorf("10%% noise (%v) should hurt vs noiseless (%v)", noisy, clean)
	}
}

func TestExtLifecycleSelfHeals(t *testing.T) {
	tab := runFig(t, "ext-lifecycle")
	if len(tab.Rows) != 2 {
		t.Fatalf("want 2 rows, got %d", len(tab.Rows))
	}
	// Rows: 0 stale model (alarm only), 1 self-healing lifecycle.
	staleMAE := cellFloat(t, tab, 0, 3)
	healMAE := cellFloat(t, tab, 1, 3)
	if a := cellFloat(t, tab, 0, 4); a == 0 {
		t.Error("drift alarm never fired against the stale model")
	}
	if p := cellFloat(t, tab, 1, 5); p == 0 {
		t.Error("the lifecycle never promoted a retrained candidate")
	}
	if v := cellFloat(t, tab, 1, 7); v < 2 {
		t.Errorf("final serving version %v, want >= 2 after a promotion", v)
	}
	if healMAE >= staleMAE {
		t.Errorf("self-healed final RM MAE (%v) should beat the stale model (%v)", healMAE, staleMAE)
	}
}

func TestExtFleetShardedDispatch(t *testing.T) {
	tab := runFig(t, "ext-fleet")
	if len(tab.Rows) != 3 {
		t.Fatalf("want 3 rows, got %d", len(tab.Rows))
	}
	// Rows: 0 flat full scan, 1 sharded k=2, 2 least-loaded.
	for i := range tab.Rows {
		if placed := cellFloat(t, tab, i, 1); placed == 0 {
			t.Errorf("row %d placed nothing", i)
		}
	}
	if esc := cellFloat(t, tab, 0, 4); esc != 0 {
		t.Errorf("flat full scan recorded %v escapes; it has no sampling to escape from", esc)
	}
	// Power-of-k sampling must preserve most of the full scan's predicted
	// per-placement quality; the same workload hits every row.
	flat := cellFloat(t, tab, 0, 3)
	sampled := cellFloat(t, tab, 1, 3)
	if flat <= 0 || sampled <= 0 {
		t.Fatalf("greedy mean deltas should be positive: flat %v, sharded %v", flat, sampled)
	}
	if sampled < 0.7*flat {
		t.Errorf("k=2 sampling lost too much quality: %v vs full-scan %v", sampled, flat)
	}
}

func TestRegistryIncludesExtensions(t *testing.T) {
	for _, id := range []string{
		"ext-conservative", "ext-encoder", "ext-delay",
		"ext-cf", "ext-churn", "ext-hetero", "ext-faults", "ext-lifecycle",
		"ext-fleet",
		"abl-aggregate", "abl-log", "abl-k", "abl-noise",
	} {
		if _, ok := Lookup(id); !ok {
			t.Errorf("extension %q not registered", id)
		}
	}
	if !strings.HasPrefix(IDs()[len(IDs())-1], "abl-") {
		t.Error("ablations should close the registry")
	}
}
