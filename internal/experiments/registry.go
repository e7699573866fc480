package experiments

import (
	"fmt"
	"io"
	"sort"
)

// Runner regenerates one figure.
type Runner func(env *Env) (*Table, error)

// Registry maps figure IDs to their drivers, in the paper's order.
var Registry = []struct {
	ID     string
	Runner Runner
}{
	{"fig1", Fig1},
	{"fig2", Fig2},
	{"fig4", Fig4},
	{"fig5", Fig5},
	{"fig6", Fig6},
	{"fig7a", Fig7a},
	{"fig7b", Fig7b},
	{"fig7c", Fig7c},
	{"fig8a", Fig8a},
	{"fig8b", Fig8b},
	{"fig8c", Fig8c},
	{"fig9a", Fig9a},
	{"fig9b", Fig9b},
	{"fig9c", Fig9c},
	{"fig10a", Fig10a},
	{"fig10b", Fig10b},
	{"overhead", Overhead},

	// Extensions beyond the paper's evaluation: the Section 7 discussion
	// items and future-work directions, built out as real experiments.
	{"ext-conservative", ExtConservative},
	{"ext-encoder", ExtEncoder},
	{"ext-delay", ExtDelay},
	{"ext-cf", ExtCF},
	{"ext-churn", ExtChurn},
	{"ext-hetero", ExtHetero},
	{"ext-faults", ExtFaults},
	{"ext-lifecycle", ExtLifecycle},
	{"ext-fleet", ExtFleet},

	// Ablations of the reproduction's own design choices.
	{"abl-aggregate", AblAggregate},
	{"abl-log", AblLogTarget},
	{"abl-k", AblGranularity},
	{"abl-noise", AblNoise},
}

// Lookup returns the runner for a figure ID.
func Lookup(id string) (Runner, bool) {
	for _, e := range Registry {
		if e.ID == id {
			return e.Runner, true
		}
	}
	return nil, false
}

// IDs returns all registered figure IDs in order.
func IDs() []string {
	out := make([]string, len(Registry))
	for i, e := range Registry {
		out[i] = e.ID
	}
	return out
}

// RunAndRender executes one figure and renders it to w.
func RunAndRender(env *Env, id string, w io.Writer) error {
	r, ok := Lookup(id)
	if !ok {
		return fmt.Errorf("experiments: unknown figure %q (known: %v)", id, IDs())
	}
	t, err := r(env)
	if err != nil {
		return fmt.Errorf("experiments: %s: %w", id, err)
	}
	t.Render(w)
	return nil
}

// SortedIDs returns the figure IDs sorted lexically (for stable help text).
func SortedIDs() []string {
	ids := IDs()
	sort.Strings(ids)
	return ids
}
