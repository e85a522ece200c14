package harness

import (
	"fmt"
	"sort"
)

// Experiment regenerates one paper artifact.
type Experiment struct {
	// ID is the artifact id: fig1, fig11..fig19l/fig19r, tab1, tab5.
	ID string
	// Title describes the artifact.
	Title string
	// Shape is the paper's qualitative result that should reproduce.
	Shape string
	// Scale is the one scale results/<ID>_<n>.csv was written at.
	Scale Scale
	// Run executes the experiment and returns its tables.
	Run func(sc Scale) []*Table
}

var registry = map[string]Experiment{}

func register(e Experiment) {
	if _, dup := registry[e.ID]; dup {
		panic(fmt.Sprintf("harness: duplicate experiment id %q", e.ID))
	}
	registry[e.ID] = e
}

// ByID looks an experiment up.
func ByID(id string) (Experiment, error) {
	e, ok := registry[id]
	if !ok {
		return Experiment{}, fmt.Errorf("harness: unknown experiment %q (have %v)", id, IDs())
	}
	return e, nil
}

// IDs returns all experiment ids in a stable order.
func IDs() []string {
	ids := make([]string, 0, len(registry))
	for id := range registry {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

// All returns all experiments in ID order.
func All() []Experiment {
	var out []Experiment
	for _, id := range IDs() {
		out = append(out, registry[id])
	}
	return out
}
