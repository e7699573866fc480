// Command gaugur drives the GAugur pipeline end to end against the
// simulated cloud-gaming substrate:
//
//	gaugur profile  -out profiles.json                 # offline step 1
//	gaugur train    -profiles profiles.json -out model.gob
//	gaugur predict  -profiles p.json -model model.gob -coloc "Dota2@1920x1080,Far Cry4@1280x720"
//	gaugur pack     -profiles p.json -model model.gob -games "Dota2,Far Cry4,..." -requests 5000
//	gaugur dispatch -profiles p.json -model model.gob -servers 2000 -requests 5000
//
// profile and train are the paper's offline stages; predict answers online
// queries from the saved artifacts; pack and dispatch run the two Section 5
// schedulers.
package main

import (
	"flag"
	"fmt"
	"log"
	"os"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("gaugur: ")
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "profile":
		err = cmdProfile(args)
	case "train":
		err = cmdTrain(args)
	case "predict":
		err = cmdPredict(args)
	case "pack":
		err = cmdPack(args)
	case "dispatch":
		err = cmdDispatch(args)
	case "churn":
		err = cmdChurn(args)
	case "fleet":
		err = cmdFleet(args)
	case "faults":
		err = cmdFaults(args)
	case "lifecycle":
		err = cmdLifecycle(args)
	case "onboard":
		err = cmdOnboard(args)
	case "serve":
		err = cmdServe(args)
	case "loadgen":
		err = cmdLoadgen(args)
	case "trace":
		err = cmdTrace(args)
	case "flightrec":
		err = cmdFlightRec(args)
	case "help", "-h", "--help":
		usage()
	default:
		usage()
		err = fmt.Errorf("unknown command %q", cmd)
	}
	if err != nil {
		log.Fatal(err)
	}
}

func usage() {
	fmt.Fprintln(os.Stderr, `usage: gaugur <command> [flags]

commands:
  profile   profile the game catalog's contention features (offline)
  train     measure colocations and train the CM + RM models (offline)
  predict   predict FPS and QoS for a colocation (online)
  pack      pack requests onto the fewest servers with QoS guarantees
  dispatch  dispatch requests onto a fixed fleet maximizing average FPS
  churn     simulate an online arrival/departure stream against the model
  fleet     drive a flash-crowd stream through the sharded dispatch plane
            (k-choices balancing, per-shard dispatchers)
  serve     run the streaming admission front end: HTTP/JSON (+ optional
            binary) API over the sharded fleet, coalescing concurrent
            arrivals into full-width batch-kernel dispatches
  loadgen   replay a flash-crowd arrival trace against a running serve
            instance and report p50/p99 admission latency + placements/sec
  faults    churn under injected crashes, spikes, and prediction dropouts
  lifecycle run the self-healing loop against drifted physics: drift alarm,
            incremental retrain, shadow evaluation, hot swap, rollback
  onboard   profile a new game cheaply via probes + matrix completion

  trace          drive a traced + audited demo workload and dump recent
                 decision traces plus the model-quality summary
  flightrec      read a flight-recorder dump (from a file or a live
                 /debug/flightrecorder endpoint) and render the event
                 timeline and retained trace trees

profile, train, pack, dispatch, churn, fleet, faults, and lifecycle accept
-metrics-addr to serve /metrics, /metrics.json, expvar, pprof, and
/debug/traces over HTTP during the run. dispatch and faults accept
-registry to serve the active version a lifecycle run promoted instead of
a flat -model file.

run "gaugur <command> -h" for the command's flags`)
}

// newFlagSet builds a flag set that prints its own usage.
func newFlagSet(name string) *flag.FlagSet {
	fs := flag.NewFlagSet(name, flag.ExitOnError)
	return fs
}
