package main

import (
	"bytes"
	"os"
	"path/filepath"
	"regexp"
	"runtime"
	"strings"
	"testing"
)

// captureStdout runs fn with os.Stdout redirected to a pipe and returns
// what it printed.
func captureStdout(t *testing.T, fn func() error) string {
	t.Helper()
	old := os.Stdout
	r, w, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = w
	runErr := fn()
	w.Close()
	os.Stdout = old
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		t.Fatal(err)
	}
	if runErr != nil {
		t.Fatalf("command failed: %v\noutput:\n%s", runErr, buf.String())
	}
	return buf.String()
}

// TestStartMetricsDisabled proves an empty address keeps observability off:
// nil registry, nil tracer, working no-op stop.
func TestStartMetricsDisabled(t *testing.T) {
	reg, tracer, stop, err := startMetrics("", 1)
	if err != nil {
		t.Fatal(err)
	}
	if reg != nil {
		t.Error("empty address must return a nil registry")
	}
	if tracer != nil {
		t.Error("empty address must return a nil tracer")
	}
	stop(0) // must not panic
}

// TestStartMetricsBadAddr proves a malformed listen address is reported.
func TestStartMetricsBadAddr(t *testing.T) {
	if _, _, _, err := startMetrics("definitely:not:an:addr", 1); err == nil {
		t.Error("expected listen error for malformed address")
	}
}

// TestTraceCommand runs the self-contained trace dump: traces listed, span
// trees expanded, quality summary printed, and the Chrome export written.
func TestTraceCommand(t *testing.T) {
	chrome := filepath.Join(t.TempDir(), "trace.json")
	out := captureStdout(t, func() error {
		return cmdTrace([]string{
			"-servers", "10",
			"-sessions", "200",
			"-n", "5",
			"-spans", "1",
			"-chrome", chrome,
		})
	})
	for _, frag := range []string{
		"traces: ",
		"placement",
		"place-batch",
		"score",
		"quality: ",
		"drift quiet",
	} {
		if !bytes.Contains([]byte(out), []byte(frag)) {
			t.Errorf("trace output missing %q:\n%s", frag, out)
		}
	}
	// One decision, one trace: the cluster nests its scoring under the
	// driver's placement trace instead of opening a root of its own.
	if bytes.Contains([]byte(out), []byte("fleet-placement")) {
		t.Errorf("trace output lists a second root per decision:\n%s", out)
	}
	data, err := os.ReadFile(chrome)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"traceEvents"`)) {
		t.Errorf("chrome export missing traceEvents array:\n%.200s", data)
	}
}

// TestTraceCommandPerturbed proves the demo drift alarm fires when the
// substrate is skewed away from the demo predictor.
func TestTraceCommandPerturbed(t *testing.T) {
	out := captureStdout(t, func() error {
		return cmdTrace([]string{"-servers", "10", "-sessions", "200", "-spans", "0", "-perturb", "0.6"})
	})
	if !bytes.Contains([]byte(out), []byte("drift DRIFTING")) {
		t.Errorf("perturbed trace run did not report drift:\n%s", out)
	}
}

// trainedArtifacts profiles the catalog and trains a small model into a
// temp dir, returning the two paths.
func trainedArtifacts(t *testing.T) (profiles, model string) {
	t.Helper()
	dir := t.TempDir()
	profiles = filepath.Join(dir, "profiles.json")
	model = filepath.Join(dir, "model.gob")
	if err := cmdProfile([]string{"-out", profiles}); err != nil {
		t.Fatal(err)
	}
	if err := cmdTrain([]string{
		"-profiles", profiles, "-out", model,
		"-pairs", "60", "-triples", "15", "-quads", "15",
		"-rm", "DTR", "-cm", "DTC",
	}); err != nil {
		t.Fatal(err)
	}
	return profiles, model
}

// TestFaultsCommandReplays: with prediction dropouts scheduled the greedy
// runs score through the fallback chain, whose breaker counts queries — a
// stateful scorer called from the cluster's shard goroutine. Same seeds must
// still print the same bytes, served-by-stage totals included, on one core
// or two.
func TestFaultsCommandReplays(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	profiles, model := trainedArtifacts(t)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	var first string
	for i, procs := range []int{1, 2, 2, 1} {
		runtime.GOMAXPROCS(procs)
		out := captureStdout(t, func() error {
			return cmdFaults([]string{
				"-profiles", profiles, "-model", model,
				"-games", "1,2,3,4,5", "-servers", "30", "-sessions", "300",
				"-dropout-rate", "0.6",
			})
		})
		if !regexp.MustCompile(`, [1-9]\d* by the capacity stage`).MatchString(out) {
			t.Fatalf("dropouts never pushed a query onto the capacity stage:\n%s", out)
		}
		if i == 0 {
			first = out
		} else if out != first {
			t.Fatalf("run %d (GOMAXPROCS %d) differs from the first:\n%s\nvs\n%s", i, procs, out, first)
		}
	}
}

// TestFaultsZeroLoadRefused: at zero load the stream never ends, so the
// window the fault schedule is drawn over has no end either. The command
// used to draw crashes over it until the process ran out of memory; it must
// refuse the stream instead.
func TestFaultsZeroLoadRefused(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	profiles, model := trainedArtifacts(t)
	err := cmdFaults([]string{"-profiles", profiles, "-model", model, "-games", "1,2", "-load", "0"})
	if err == nil || !strings.Contains(err.Error(), "arrival rate") {
		t.Fatalf("faults -load 0: err = %v, want an arrival-rate error", err)
	}
}

// TestChurnMetricsFlag runs the churn command with -metrics-addr on an
// ephemeral port, exercising the flag wiring end to end (profile + train +
// online loop with a live endpoint and instrumented predictor).
func TestChurnMetricsFlag(t *testing.T) {
	if testing.Short() {
		t.Skip("trains a model")
	}
	profiles, model := trainedArtifacts(t)
	out := captureStdout(t, func() error {
		return cmdChurn([]string{
			"-profiles", profiles,
			"-model", model,
			"-games", "Dota2,Borderland2,Far Cry4",
			"-servers", "10",
			"-sessions", "200",
			"-metrics-addr", "127.0.0.1:0",
		})
	})
	for _, frag := range []string{"metrics: serving", "placements", "predictions"} {
		if !bytes.Contains([]byte(out), []byte(frag)) {
			t.Errorf("churn output missing %q:\n%s", frag, out)
		}
	}
	if bytes.Contains([]byte(out), []byte("metrics: 0 placements")) {
		t.Errorf("instrumented churn recorded no placements:\n%s", out)
	}
}
