package core

import "nfcompass/internal/nf"

// Hazard classifies the dependency between two consecutive NFs, mirroring
// the instruction-pipeline analogy of §IV-B-1.
type Hazard int

// Hazard kinds.
const (
	// HazardNone means the pair is freely parallelizable (RAR, WAR).
	HazardNone Hazard = iota
	// HazardRAW: the later NF reads a region the former writes.
	HazardRAW
	// HazardWAW: both write the same region.
	HazardWAW
	// HazardLength: a length-changing NF conflicts with any NF that
	// touches the payload or the length-bearing header fields.
	HazardLength
)

// Analyze returns the hazard between a former NF and a later NF in a
// chain, per Table III: RAR and WAR are safe; RAW and WAW are not —
// except that WAW (and region-crossed cases) are safe when the two NFs
// touch disjoint regions (one header, one payload), the "locate the
// changed fields" refinement the paper describes.
func Analyze(former, later nf.ActionProfile) Hazard {
	// Length changes invalidate offsets for any packet-touching peer.
	if former.AddRmBits || later.AddRmBits {
		touches := func(p nf.ActionProfile) bool {
			return p.ReadsHeader || p.ReadsPayload || p.WritesHeader || p.WritesPayload
		}
		if touches(former) && touches(later) {
			return HazardLength
		}
	}
	// RAW per region: former writes X, later reads X.
	if former.WritesHeader && later.ReadsHeader {
		return HazardRAW
	}
	if former.WritesPayload && later.ReadsPayload {
		return HazardRAW
	}
	// WAW per region.
	if former.WritesHeader && later.WritesHeader {
		return HazardWAW
	}
	if former.WritesPayload && later.WritesPayload {
		return HazardWAW
	}
	// WAR (later writes what former reads) and RAR are safe under packet
	// duplication: each branch works on its own copy and the XOR merge
	// reconciles disjoint modifications. Drops merge with drop-wins
	// semantics, so CanDrop does not serialize.
	return HazardNone
}

// Stage is one step of the re-organized SFC: NFs within a stage run in
// parallel on duplicated traffic; stages run in sequence.
type Stage struct {
	NFs []*nf.NF
}

// Parallelize re-organizes a sequential chain into parallel stages by
// dependency-DAG level assignment (the paper models the SFC as a dataflow
// graph): NF i depends on an earlier NF j when their packet actions hazard
// (Analyze != none); each NF's stage is one past its deepest dependency.
// Two NFs land in the same stage only if no dependency path separates
// them, so every stage is hazard-free, and an NF unconstrained by its
// immediate predecessor can still hoist past it — which a greedy
// left-to-right grouping cannot do.
func Parallelize(chain []*nf.NF) []Stage {
	if len(chain) == 0 {
		return nil
	}
	level := make([]int, len(chain))
	maxLevel := 0
	for i, f := range chain {
		l := 0
		for j := 0; j < i; j++ {
			if Analyze(chain[j].Profile, f.Profile) != HazardNone && level[j]+1 > l {
				l = level[j] + 1
			}
		}
		level[i] = l
		if l > maxLevel {
			maxLevel = l
		}
	}
	stages := make([]Stage, maxLevel+1)
	for i, f := range chain {
		stages[level[i]].NFs = append(stages[level[i]].NFs, f)
	}
	return stages
}

// EffectiveLength returns the re-organized SFC's critical-path length in
// stages — the paper's "effective length of SFC configuration" metric
// (Fig. 13: configuration a has length 4, b has 1, c has 2).
func EffectiveLength(stages []Stage) int { return len(stages) }
