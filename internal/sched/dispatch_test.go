package sched

import (
	"fmt"
	"testing"
)

func stateKey(games []int) string { return fmt.Sprint(games) }

// sumScorer returns a Scorer that gives each game a fixed value and
// subtracts a pairwise penalty per cohabiting pair.
func sumScorer(value map[int]float64, pairPenalty float64) Scorer {
	return func(games []int) float64 {
		s := 0.0
		for _, g := range games {
			s += value[g]
		}
		n := float64(len(games))
		s -= pairPenalty * n * (n - 1) / 2
		return s
	}
}

func TestDispatcherSpreadsBeforeStacking(t *testing.T) {
	// With any interference penalty, the delta-greedy should fill empty
	// servers before pairing.
	d := &Dispatcher{
		NumServers:   4,
		MaxPerServer: 4,
		Score:        sumScorer(map[int]float64{1: 100, 2: 100}, 10),
	}
	fleet, err := d.Assign([]int{1, 2, 1, 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 4 {
		t.Fatalf("fleet = %v, want 4 singletons", fleet)
	}
	for _, s := range fleet {
		if len(s) != 1 {
			t.Errorf("server %v should be a singleton", s)
		}
	}
}

func TestDispatcherAvoidsToxicPairs(t *testing.T) {
	// Games: 1 and 2 clash badly; 1 and 3 are harmless. Two servers,
	// three requests: the greedy should pair 1 with 3, never 1 with 2.
	score := func(games []int) float64 {
		s := 0.0
		has := map[int]bool{}
		for _, g := range games {
			s += 100
			has[g] = true
		}
		if has[1] && has[2] {
			s -= 150
		}
		return s
	}
	d := &Dispatcher{NumServers: 2, MaxPerServer: 2, Score: score}
	fleet, err := d.Assign([]int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range fleet {
		has := map[int]bool{}
		for _, g := range s {
			has[g] = true
		}
		if has[1] && has[2] {
			t.Fatalf("toxic pair colocated: %v", fleet)
		}
	}
}

func TestDispatcherRespectsCapacity(t *testing.T) {
	d := &Dispatcher{NumServers: 2, MaxPerServer: 2, Score: sumScorer(map[int]float64{1: 10}, 0)}
	if _, err := d.Assign([]int{1, 1, 1, 1, 1}); err == nil {
		t.Error("over-capacity assignment should fail")
	}
	fleet, err := d.Assign([]int{1, 1, 1, 1})
	if err != nil {
		t.Fatal(err)
	}
	total := 0
	for _, s := range fleet {
		if len(s) > 2 {
			t.Errorf("server over capacity: %v", s)
		}
		total += len(s)
	}
	if total != 4 {
		t.Errorf("served %d requests, want 4", total)
	}
	if _, err := (&Dispatcher{NumServers: 0, Score: sumScorer(nil, 0)}).Assign([]int{1}); err == nil {
		t.Error("zero servers should fail")
	}
}

func TestDispatcherDeterministic(t *testing.T) {
	mk := func() [][]int {
		d := &Dispatcher{NumServers: 3, MaxPerServer: 2,
			Score: sumScorer(map[int]float64{1: 50, 2: 70, 3: 90}, 20)}
		fleet, err := d.Assign([]int{1, 2, 3, 1, 2, 3})
		if err != nil {
			t.Fatal(err)
		}
		return fleet
	}
	a, b := mk(), mk()
	if len(a) != len(b) {
		t.Fatal("nondeterministic fleet size")
	}
	for i := range a {
		if stateKey(a[i]) != stateKey(b[i]) {
			t.Fatal("nondeterministic assignment")
		}
	}
}

func TestWorstFitBalances(t *testing.T) {
	demand := func(g int) float64 { return 1 }
	fleet, err := WorstFit([]int{1, 2, 3, 4, 5, 6}, 3, 4, 5, demand)
	if err != nil {
		t.Fatal(err)
	}
	if len(fleet) != 3 {
		t.Fatalf("fleet size %d, want 3", len(fleet))
	}
	for _, s := range fleet {
		if len(s) != 2 {
			t.Errorf("worst-fit should balance: %v", fleet)
		}
	}
}

func TestWorstFitCapacityAndErrors(t *testing.T) {
	demand := func(g int) float64 { return 1 }
	if _, err := WorstFit([]int{1, 2, 3}, 1, 2, 5, demand); err == nil {
		t.Error("over-capacity worst-fit should fail")
	}
	if _, err := WorstFit([]int{1}, 0, 2, 5, demand); err == nil {
		t.Error("zero servers should fail")
	}
}

func TestExpandRequestsInterleaves(t *testing.T) {
	out := ExpandRequests(map[int]int{1: 2, 2: 2, 3: 1})
	if len(out) != 5 {
		t.Fatalf("len = %d", len(out))
	}
	// Round-robin: first pass serves each game once.
	if out[0] != 1 || out[1] != 2 || out[2] != 3 || out[3] != 1 || out[4] != 2 {
		t.Errorf("ExpandRequests = %v", out)
	}
}
