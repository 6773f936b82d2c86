package core

import (
	"fmt"
	"sort"
	"strings"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
)

// Describe renders a human-readable report of every pipeline decision:
// stage plan, synthesis changes, the allocation summary, and per element
// the selected placement beside the model's offload ratio. The CLI and the
// quickstart example print it; tests assert against it.
func (d *Deployment) Describe() string {
	var sb strings.Builder

	for _, pl := range d.plans {
		if pl.Tag != 0 {
			fmt.Fprintf(&sb, "tenant %s (tag %d) ", pl.Name, pl.Tag)
		}
		fmt.Fprintf(&sb, "stages (effective length %d):\n", EffectiveLength(pl.stages))
		for i, st := range pl.stages {
			names := make([]string, len(st.NFs))
			for j, f := range st.NFs {
				names[j] = f.Name
			}
			fmt.Fprintf(&sb, "  %d: %s\n", i, strings.Join(names, " || "))
		}
	}

	for _, rep := range d.Synthesis {
		if len(rep.Removed)+len(rep.DeadWrites)+len(rep.Hoisted) == 0 {
			continue
		}
		fmt.Fprintf(&sb, "synthesis: %d -> %d elements", rep.Before, rep.After)
		if len(rep.Removed) > 0 {
			fmt.Fprintf(&sb, "; removed %s", strings.Join(rep.Removed, ", "))
		}
		if len(rep.DeadWrites) > 0 {
			fmt.Fprintf(&sb, "; dead writes %s", strings.Join(rep.DeadWrites, ", "))
		}
		if len(rep.Hoisted) > 0 {
			fmt.Fprintf(&sb, "; hoisted %s", strings.Join(rep.Hoisted, ", "))
		}
		sb.WriteByte('\n')
	}

	if d.Alloc != nil {
		fmt.Fprintf(&sb,
			"allocation (%v, selected %q): objective %.0fns/batch, cut %.0fns, loads cpu %.0fns / gpu %.0fns over %d instances\n",
			d.Alloc.Algorithm, d.Alloc.Selected, d.Alloc.Cost, d.Alloc.CutNs,
			d.Alloc.CPULoadNs, d.Alloc.GPULoadNs, d.Alloc.Instances)
	}

	// Placement table in graph order.
	fmt.Fprintf(&sb, "placements (%d elements):\n", d.Graph.Len())
	type placed struct {
		name, kind, where string
	}
	var rows []placed
	for i := 0; i < d.Graph.Len(); i++ {
		id := element.NodeID(i)
		el := d.Graph.Node(id)
		where := "cpu"
		switch pl := d.Assignment[id]; pl.Mode {
		case hetsim.ModeGPU:
			where = "gpu"
		case hetsim.ModeSplit:
			where = fmt.Sprintf("split %.0f%% gpu", pl.GPUFraction*100)
		}
		rows = append(rows, placed{el.Name(), el.Traits().Kind, where})
	}
	sort.Slice(rows, func(i, j int) bool { return rows[i].name < rows[j].name })
	for _, r := range rows {
		if d.Alloc == nil {
			fmt.Fprintf(&sb, "  %-40s %-14s %s\n", r.name, r.kind, r.where)
			continue
		}
		// The selected placement, then the partitioner's own GPU ratio:
		// they differ when validation picked a candidate other than the
		// model's.
		fmt.Fprintf(&sb, "  %-40s %-14s %-14s model %.2f\n", r.name, r.kind, r.where,
			d.Alloc.OffloadByElement[r.name])
	}
	return sb.String()
}
