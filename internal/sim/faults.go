package sim

import (
	"math"
	"math/rand"
	"sort"
)

// Fault injection: a production fleet does not fail politely, so the
// serving-layer experiments need a deterministic way to make servers crash,
// noisy neighbors appear, and the profiling pipeline go dark — all from a
// seed, so a run is exactly reproducible. The schedule is generated ahead
// of time and replayed by an Injector; the physics of a pressure spike
// reuses the same composition rules as real tenants (ExpectedFPSWithNeighbor),
// so injected interference is indistinguishable from a colocated workload
// the placement policy never saw.

// FaultKind enumerates the injectable failure classes.
type FaultKind int

const (
	// FaultCrash takes a whole server down at At; every hosted session is
	// orphaned and the server returns, empty, after Duration.
	FaultCrash FaultKind = iota
	// FaultSpike adds Magnitude load on one Resource of one server for
	// Duration — a noisy neighbor (co-tenant VM, background job) outside
	// the placement policy's control or prediction.
	FaultSpike
	// FaultDropout makes the profiling/prediction pipeline unavailable for
	// Duration — the measurement outage that forces a predictor to degrade
	// gracefully instead of serving stale or missing answers.
	FaultDropout
)

// String names the fault kind.
func (k FaultKind) String() string {
	switch k {
	case FaultCrash:
		return "crash"
	case FaultSpike:
		return "spike"
	case FaultDropout:
		return "dropout"
	}
	return "unknown"
}

// FaultEvent is one scheduled fault.
type FaultEvent struct {
	// At is the simulation time the fault begins.
	At float64
	// Kind selects the failure class.
	Kind FaultKind
	// Server is the crash/spike target (ignored for dropouts).
	Server int
	// Resource is the spiked resource (spikes only).
	Resource Resource
	// Magnitude is the extra load the spike places on Resource.
	Magnitude float64
	// Duration is the downtime / spike length / outage length.
	Duration float64
}

// FaultConfig parameterizes GenerateFaults. Each class arrives as a Poisson
// process over [0, Horizon); durations are exponential around their means.
// A zero rate disables that class.
type FaultConfig struct {
	// Seed drives every draw; the same config always yields the same
	// schedule.
	Seed int64
	// Horizon is the time span faults may start in.
	Horizon float64
	// NumServers bounds the crash/spike target draws.
	NumServers int

	// CrashRate is mean whole-server crashes per unit time across the
	// fleet; CrashDowntime is the mean time until the server returns.
	CrashRate, CrashDowntime float64
	// SpikeRate is mean noisy-neighbor spikes per unit time;
	// SpikeDuration and SpikeMagnitude set their mean length and the load
	// added to the spiked resource (magnitude varies ±50% per event).
	SpikeRate, SpikeDuration, SpikeMagnitude float64
	// DropoutRate is mean prediction-pipeline outages per unit time;
	// DropoutDuration is their mean length.
	DropoutRate, DropoutDuration float64
}

// GenerateFaults returns the deterministic, time-sorted fault schedule for
// the config, or nil when the fleet is empty or the horizon is not positive
// and finite — an unbounded window would hold unboundedly many faults.
func GenerateFaults(cfg FaultConfig) []FaultEvent {
	if cfg.Horizon <= 0 || math.IsInf(cfg.Horizon, 1) || cfg.NumServers <= 0 {
		return nil
	}
	rng := rand.New(rand.NewSource(cfg.Seed))
	var out []FaultEvent

	draw := func(rate float64, mk func() FaultEvent) {
		if rate <= 0 {
			return
		}
		for t := rng.ExpFloat64() / rate; t < cfg.Horizon; t += rng.ExpFloat64() / rate {
			ev := mk()
			ev.At = t
			out = append(out, ev)
		}
	}
	draw(cfg.CrashRate, func() FaultEvent {
		return FaultEvent{
			Kind:     FaultCrash,
			Server:   rng.Intn(cfg.NumServers),
			Duration: rng.ExpFloat64() * cfg.CrashDowntime,
		}
	})
	draw(cfg.SpikeRate, func() FaultEvent {
		return FaultEvent{
			Kind:      FaultSpike,
			Server:    rng.Intn(cfg.NumServers),
			Resource:  Resource(rng.Intn(NumResources)),
			Magnitude: cfg.SpikeMagnitude * (0.5 + rng.Float64()),
			Duration:  rng.ExpFloat64() * cfg.SpikeDuration,
		}
	})
	draw(cfg.DropoutRate, func() FaultEvent {
		return FaultEvent{
			Kind:     FaultDropout,
			Duration: rng.ExpFloat64() * cfg.DropoutDuration,
		}
	})

	SortFaults(out)
	return out
}

// SortFaults orders a schedule by start time (ties broken by kind then
// server, for determinism).
func SortFaults(evs []FaultEvent) {
	sort.Slice(evs, func(i, j int) bool {
		if evs[i].At != evs[j].At {
			return evs[i].At < evs[j].At
		}
		if evs[i].Kind != evs[j].Kind {
			return evs[i].Kind < evs[j].Kind
		}
		return evs[i].Server < evs[j].Server
	})
}

// FaultTransition is one state change the Injector reports: a fault
// beginning or ending.
type FaultTransition struct {
	Event   FaultEvent
	Started bool // true when the fault begins, false when it expires
	At      float64
}

// activeFault is a begun, not-yet-expired fault.
type activeFault struct {
	ev  FaultEvent
	end float64
}

// Injector replays a fault schedule: an event loop asks when the next
// state change happens (NextChange), advances to it (AdvanceTo), and
// queries the resulting fleet state (ServerDown / SpikeLoad /
// OutageActive). The injector never consumes randomness, so it composes
// with any driver without perturbing the driver's streams.
type Injector struct {
	events []FaultEvent
	next   int
	active []activeFault
	now    float64
}

// NewInjector builds an injector over a copy of the schedule (sorted by
// start time).
func NewInjector(events []FaultEvent) *Injector {
	evs := append([]FaultEvent(nil), events...)
	SortFaults(evs)
	return &Injector{events: evs}
}

// NextChange returns the time of the next fault start or expiry, if any.
func (j *Injector) NextChange() (float64, bool) {
	t, ok := 0.0, false
	if j.next < len(j.events) {
		t, ok = j.events[j.next].At, true
	}
	for _, a := range j.active {
		if !ok || a.end < t {
			t, ok = a.end, true
		}
	}
	return t, ok
}

// AdvanceTo moves the injector clock to t, expiring and activating faults
// on the way, and returns the transitions in time order (expiries before
// starts at the same instant).
func (j *Injector) AdvanceTo(t float64) []FaultTransition {
	var out []FaultTransition
	for {
		// Earliest pending change at or before t: compare next expiry
		// against next start.
		endIdx, endAt := -1, t
		for i, a := range j.active {
			if a.end <= endAt && (endIdx < 0 || a.end < endAt) {
				endIdx, endAt = i, a.end
			}
		}
		startOK := j.next < len(j.events) && j.events[j.next].At <= t
		switch {
		case endIdx >= 0 && (!startOK || endAt <= j.events[j.next].At):
			a := j.active[endIdx]
			j.active = append(j.active[:endIdx], j.active[endIdx+1:]...)
			out = append(out, FaultTransition{Event: a.ev, Started: false, At: a.end})
		case startOK:
			ev := j.events[j.next]
			j.next++
			j.active = append(j.active, activeFault{ev: ev, end: ev.At + ev.Duration})
			out = append(out, FaultTransition{Event: ev, Started: true, At: ev.At})
		default:
			j.now = t
			return out
		}
	}
}

// ServerDown reports whether any active crash covers server s.
func (j *Injector) ServerDown(s int) bool {
	for _, a := range j.active {
		if a.ev.Kind == FaultCrash && a.ev.Server == s {
			return true
		}
	}
	return false
}

// SpikeLoad sums the active noisy-neighbor loads on server s into one
// per-resource vector.
func (j *Injector) SpikeLoad(s int) Vector {
	var v Vector
	for _, a := range j.active {
		if a.ev.Kind == FaultSpike && a.ev.Server == s {
			v[a.ev.Resource] += a.ev.Magnitude
		}
	}
	return v
}

// SpikeActive reports whether any spike currently targets server s.
func (j *Injector) SpikeActive(s int) bool {
	for _, a := range j.active {
		if a.ev.Kind == FaultSpike && a.ev.Server == s {
			return true
		}
	}
	return false
}

// OutageActive reports whether a prediction-pipeline dropout is in effect.
func (j *Injector) OutageActive() bool {
	for _, a := range j.active {
		if a.ev.Kind == FaultDropout {
			return true
		}
	}
	return false
}
