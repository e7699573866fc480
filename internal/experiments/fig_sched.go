package experiments

import (
	"fmt"
	"math/rand"

	"gaugur/internal/core"
	"gaugur/internal/ml"
	"gaugur/internal/sched"
	"gaugur/internal/stats"
)

// FeasibilityModel is anything that can judge a colocation feasible (every
// game predicted to meet the QoS floor).
type FeasibilityModel interface {
	Feasible(c core.Colocation) bool
}

// feasibleFunc adapts a closure to FeasibilityModel.
type feasibleFunc func(c core.Colocation) bool

func (f feasibleFunc) Feasible(c core.Colocation) bool { return f(c) }

// methodologies returns the Section 5 lineup of feasibility judges at the
// given QoS, in the paper's plotting order.
func (e *Env) methodologies(qos float64) ([]string, []FeasibilityModel, error) {
	p, err := e.GAugur(qos)
	if err != nil {
		return nil, nil, err
	}
	sg, err := e.Sigmoid(qos)
	if err != nil {
		return nil, nil, err
	}
	sm, err := e.SMiTe(qos)
	if err != nil {
		return nil, nil, err
	}
	names := []string{"GAugur(CM)", "GAugur(RM)", "Sigmoid", "SMiTe", "VBP"}
	models := []FeasibilityModel{
		feasibleFunc(p.FeasibleCM),
		feasibleFunc(p.FeasibleRM),
		sg,
		sm,
		e.VBP(),
	}
	return names, models, nil
}

// actualFeasible judges a colocation against the noise-free ground truth.
func (e *Env) actualFeasible(c core.Colocation, qos float64) bool {
	for _, fps := range e.Lab.ExpectedFPS(c) {
		if fps < qos {
			return false
		}
	}
	return true
}

// tenGameStudy enumerates the 385 colocations of size <= 4 over the ten
// study games and scores every methodology's feasibility judgements.
func (e *Env) tenGameStudy(qos float64) (names []string, confusions []ml.Confusion, subsets []sched.ColocSet, actual []bool, err error) {
	ids := e.TenGames()
	subsets = sched.EnumerateSubsets(ids, 4)
	actual = make([]bool, len(subsets))
	for i, s := range subsets {
		actual[i] = e.actualFeasible(s.Colocation(), qos)
	}
	var models []FeasibilityModel
	names, models, err = e.methodologies(qos)
	if err != nil {
		return nil, nil, nil, nil, err
	}
	confusions = make([]ml.Confusion, len(models))
	for mi, m := range models {
		for i, s := range subsets {
			pred := 0
			if m.Feasible(s.Colocation()) {
				pred = 1
			}
			act := 0
			if actual[i] {
				act = 1
			}
			confusions[mi].Add(pred, act)
		}
	}
	return names, confusions, subsets, actual, nil
}

// Fig9a reproduces Figure 9a: TP/FP/FN/TN counts per methodology over the
// 385 colocations of the ten-game study (QoS 60).
func Fig9a(env *Env) (*Table, error) {
	names, confs, subsets, actual, err := env.tenGameStudy(env.Cfg.QoSHigh)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9a",
		Title:   fmt.Sprintf("Feasibility judgements over %d colocations of 10 games (QoS %.0f)", len(subsets), env.Cfg.QoSHigh),
		Columns: []string{"methodology", "TP", "FP", "FN", "TN"},
	}
	for i, n := range names {
		c := confs[i]
		t.AddRow(n, d0(c.TP), d0(c.FP), d0(c.FN), d0(c.TN))
	}
	nFeas := 0
	for _, a := range actual {
		if a {
			nFeas++
		}
	}
	t.AddNote("%d of %d colocations are actually feasible", nFeas, len(subsets))
	return t, nil
}

// Fig9b reproduces Figure 9b: accuracy, precision, and recall per
// methodology.
func Fig9b(env *Env) (*Table, error) {
	names, confs, _, _, err := env.tenGameStudy(env.Cfg.QoSHigh)
	if err != nil {
		return nil, err
	}
	t := &Table{
		ID:      "fig9b",
		Title:   "Feasibility accuracy / precision / recall (QoS 60)",
		Columns: []string{"methodology", "accuracy", "precision", "recall"},
	}
	for i, n := range names {
		c := confs[i]
		t.AddRow(n, f3(c.Accuracy()), f3(c.Precision()), f3(c.Recall()))
	}
	t.AddNote("low precision means QoS violations in production; low recall wastes packing opportunities")
	return t, nil
}

// requestWeights draws the random per-game demand mix of Section 5
// ("randomly distributed among the 10 selected games").
func (e *Env) requestWeights(n int) []float64 {
	rng := rand.New(rand.NewSource(e.Cfg.TenGameSeed + 1))
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5 + rng.Float64()
	}
	return w
}

// Fig9c reproduces Figure 9c: the number of servers Algorithm 1 needs to
// pack the request stream when each methodology supplies the feasible set.
// Following the paper, only TRUE positives are used (deploying a false
// positive would violate QoS, which is not a meaningful saving).
func Fig9c(env *Env) (*Table, error) {
	ids := env.TenGames()
	demand := sched.SpreadRequests(ids, env.Cfg.Requests, env.requestWeights(len(ids)))

	t := &Table{
		ID:      "fig9c",
		Title:   fmt.Sprintf("Servers used to pack %d requests over 10 games", env.Cfg.Requests),
		Columns: []string{"methodology", fmt.Sprintf("QoS %.0f", env.Cfg.QoSHigh), fmt.Sprintf("QoS %.0f", env.Cfg.QoSLow)},
	}

	type rowAgg struct{ hi, lo int }
	rows := map[string]*rowAgg{}
	var order []string
	for _, qos := range []float64{env.Cfg.QoSHigh, env.Cfg.QoSLow} {
		names, models, err := env.methodologies(qos)
		if err != nil {
			return nil, err
		}
		subsets := sched.EnumerateSubsets(ids, 4)
		for mi, m := range models {
			var feas []sched.ColocSet
			for _, s := range subsets {
				c := s.Colocation()
				if m.Feasible(c) && env.actualFeasible(c, qos) {
					feas = append(feas, s)
				}
			}
			res := sched.PackRequests(feas, demand)
			if rows[names[mi]] == nil {
				rows[names[mi]] = &rowAgg{}
				order = append(order, names[mi])
			}
			if qos == env.Cfg.QoSHigh {
				rows[names[mi]].hi = res.NumServers()
			} else {
				rows[names[mi]].lo = res.NumServers()
			}
		}
	}
	for _, n := range order {
		t.AddRow(n, d0(rows[n].hi), d0(rows[n].lo))
	}
	t.AddNote("no-colocation policy would use %d servers", env.Cfg.Requests)
	return t, nil
}

// dispatchers returns the Section 5.2 lineup: predicted-average-FPS greedy
// dispatchers for GAugur(RM), Sigmoid and SMiTe, plus worst-fit VBP.
func (e *Env) dispatchFleet(numServers int) (names []string, fleets [][][]int, err error) {
	ids := e.TenGames()
	demand := sched.SpreadRequests(ids, e.Cfg.Requests, e.requestWeights(len(ids)))
	requests := sched.ExpandRequests(demand)

	qos := e.Cfg.QoSHigh
	p, err := e.GAugur(qos)
	if err != nil {
		return nil, nil, err
	}
	sg, err := e.Sigmoid(qos)
	if err != nil {
		return nil, nil, err
	}
	sm, err := e.SMiTe(qos)
	if err != nil {
		return nil, nil, err
	}

	names = []string{"GAugur(RM)", "Sigmoid", "SMiTe", "VBP"}
	scorers := []sched.Scorer{
		// GAugur scores through the batch API (identical values, shared
		// buffers across the colocation's indices).
		func(games []int) float64 { return p.PredictTotalFPS(core.ColocationOf(games)) },
		sched.TotalFPS(sg.PredictFPS, 0),
		sched.TotalFPS(sm.PredictFPS, 0),
		nil, // VBP uses worst-fit instead
	}
	fleets = make([][][]int, len(names))
	for i, sc := range scorers {
		if sc != nil {
			d := &sched.Dispatcher{NumServers: numServers, MaxPerServer: 4, Score: sc}
			fleets[i], err = d.Assign(requests)
		} else {
			vbp := e.VBP()
			demandOf := func(g int) float64 {
				return 5 - vbp.RemainingCapacity(core.ColocationOf([]int{g})) // demand across the 5 counted dims
			}
			fleets[i], err = sched.WorstFit(requests, numServers, 4, 5, demandOf)
		}
		if err != nil {
			return nil, nil, err
		}
	}
	return names, fleets, nil
}

// Fig10a reproduces Figure 10a: actual average FPS achieved by each
// dispatcher across fleet sizes.
func Fig10a(env *Env) (*Table, error) {
	cols := []string{"methodology"}
	for _, n := range env.Cfg.FleetSizes {
		cols = append(cols, fmt.Sprintf("%d servers", n))
	}
	t := &Table{
		ID:      "fig10a",
		Title:   fmt.Sprintf("Average FPS dispatching %d requests onto a fixed fleet", env.Cfg.Requests),
		Columns: cols,
	}
	rows := map[string][]string{}
	var order []string
	for _, fleet := range env.Cfg.FleetSizes {
		names, fleets, err := env.dispatchFleet(fleet)
		if err != nil {
			return nil, err
		}
		for i, n := range names {
			fps := sched.EvaluateFleet(env.Lab, fleets[i])
			if rows[n] == nil {
				order = append(order, n)
			}
			rows[n] = append(rows[n], f1(stats.Mean(fps)))
		}
	}
	for _, n := range order {
		t.AddRow(append([]string{n}, rows[n]...)...)
	}
	t.AddNote("more servers -> smaller colocations -> higher FPS for every methodology")
	return t, nil
}

// Fig10b reproduces Figure 10b: the CDF of per-game frame rates when the
// fleet has the paper's 2000-server size (scaled in quick configs).
func Fig10b(env *Env) (*Table, error) {
	fleet := env.Cfg.FleetSizes[len(env.Cfg.FleetSizes)/2]
	names, fleets, err := env.dispatchFleet(fleet)
	if err != nil {
		return nil, err
	}
	cdfs := make([]*stats.CDF, len(names))
	for i := range fleets {
		cdfs[i] = stats.NewCDF(sched.EvaluateFleet(env.Lab, fleets[i]))
	}
	cols := []string{"percentile"}
	cols = append(cols, names...)
	t := &Table{
		ID:      "fig10b",
		Title:   fmt.Sprintf("CDF of per-game FPS with %d servers", fleet),
		Columns: cols,
	}
	for p := 10; p <= 100; p += 10 {
		row := []string{fmt.Sprintf("p%d", p)}
		for _, c := range cdfs {
			row = append(row, f1(c.InverseAt(float64(p)/100)))
		}
		t.AddRow(row...)
	}
	t.AddNote("interference-aware dispatch lifts the whole distribution")
	return t, nil
}
