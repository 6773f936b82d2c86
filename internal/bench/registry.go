package bench

import (
	"fmt"
	"sort"
)

// Experiment is a registered experiment driver.
type Experiment struct {
	ID    string
	Paper string // the paper artifact it regenerates
	Run   func(Config) (*Table, error)
}

// Registry lists every experiment by id.
var Registry = map[string]Experiment{
	"fig5":     {ID: "fig5", Paper: "Figure 5", Run: Fig5},
	"fig6":     {ID: "fig6", Paper: "Figure 6", Run: Fig6},
	"fig7":     {ID: "fig7", Paper: "Figure 7", Run: Fig7},
	"fig8a":    {ID: "fig8a", Paper: "Figure 8(a-c)", Run: Fig8BatchSize},
	"fig8d":    {ID: "fig8d", Paper: "Figure 8(d)", Run: Fig8Traffic},
	"fig8e":    {ID: "fig8e", Paper: "Figure 8(e)", Run: Fig8CoRun},
	"fig14":    {ID: "fig14", Paper: "Figures 13-14", Run: Fig14},
	"fig15":    {ID: "fig15", Paper: "Figure 15", Run: Fig15},
	"fig17":    {ID: "fig17", Paper: "Figures 16-17", Run: Fig17},
	"ablation": {ID: "ablation", Paper: "DESIGN.md E13", Run: Ablation},
	"algos":    {ID: "algos", Paper: "§IV-C-3 tradeoff", Run: Algos},
	"micro":    {ID: "micro", Paper: "§IV-C-2 dictionary", Run: Micro},
	"scaling":  {ID: "scaling", Paper: "§II-A-2 SFC length", Run: Scaling},
}

// IDs returns the registered experiment ids in order.
func IDs() []string {
	out := make([]string, 0, len(Registry))
	for id := range Registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Run executes one experiment by id.
func Run(id string, cfg Config) (*Table, error) {
	e, ok := Registry[id]
	if !ok {
		return nil, fmt.Errorf("bench: unknown experiment %q (have %v)", id, IDs())
	}
	return e.Run(cfg)
}
