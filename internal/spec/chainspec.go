package spec

import (
	"bytes"
	"encoding/json"
	"fmt"

	"nfcompass/internal/nf"
)

// ChainSpec is the declarative unit of the multi-tenant control plane: a
// named, versioned service chain plus the deployment knobs that make the
// spec alone determine a deployable pipeline. Operators submit specs over
// the admin server (POST /chains) or nfctl; the coordinator takes each
// revision through validate → profile → allocate → canary → live.
type ChainSpec struct {
	// Name identifies the chain (the tenant). Revisions of one name
	// replace each other; distinct names run concurrently on the shared
	// dataplane.
	Name string `json:"name"`
	// Revision orders updates of one chain. A submitted revision must be
	// greater than the chain's current one; the coordinator keeps the
	// previous revision as the rollback target.
	Revision int `json:"revision"`
	// Chain is the textual NF chain ("firewall:1000,ipv4,nat"). See
	// Names() for the accepted NFs.
	Chain string `json:"chain"`
	// Seed makes the spec's generated tables (ACLs, routes) deterministic
	// (default 1): two builds of one spec are functionally identical,
	// which is what makes cross-chain de-duplication sound.
	Seed int64 `json:"seed,omitempty"`
	// Shards requests a replica count for the shared dataplane hosting
	// this chain (0 = the manager's default). The largest request among
	// live chains wins.
	Shards int `json:"shards,omitempty"`
	// BatchSize is the injection batch size for this tenant's traffic
	// (default 64).
	BatchSize int `json:"batch_size,omitempty"`
	// PktSize shapes the tenant's synthetic traffic in self-driving
	// deployments (0 = IMIX).
	PktSize int `json:"pkt_size,omitempty"`
	// Offload asks for graph-partition task allocation. The knob is
	// settled per composition: GTA places the whole composed graph — every
	// tenant's chain and the shared prefix — when any live spec sets it,
	// and leaves it CPU-only when none does.
	Offload bool `json:"offload,omitempty"`
	// Synthesize enables NF-level element merging (default true; only an
	// explicit false disables it). The knob is settled per composition:
	// synthesis runs over every tenant's chain unless some live spec opts
	// out, and then over none.
	Synthesize *bool `json:"synthesize,omitempty"`
	// SLO is the rollout guard: a canary revision whose observed e2e tail
	// latency breaches it is rolled back automatically.
	SLO SLO `json:"slo,omitempty"`
}

// SLO bounds a chain's end-to-end latency during rollout.
type SLO struct {
	// P99Us is the e2e p99 latency ceiling in microseconds measured on the
	// canary's inject→release ring (0 = no latency SLO: the canary
	// promotes after the guard window regardless of tail).
	P99Us float64 `json:"p99_us,omitempty"`
	// GuardTicks is how many consecutive healthy observation ticks the
	// canary must survive before promotion (0 = manager default).
	GuardTicks int `json:"guard_ticks,omitempty"`
}

// Build checks the spec's fields, then parses the chain and constructs its
// NFs with the spec's seed.
func (s *ChainSpec) Build() ([]*nf.NF, error) {
	if s.Name == "" {
		return nil, fmt.Errorf("spec: chain name required")
	}
	if s.Revision <= 0 {
		return nil, fmt.Errorf("spec: chain %q: revision must be >= 1 (got %d)", s.Name, s.Revision)
	}
	if s.Shards < 0 {
		return nil, fmt.Errorf("spec: chain %q: negative shards", s.Name)
	}
	if s.BatchSize < 0 {
		return nil, fmt.Errorf("spec: chain %q: negative batch size", s.Name)
	}
	if s.SLO.P99Us < 0 {
		return nil, fmt.Errorf("spec: chain %q: negative SLO", s.Name)
	}
	nfs, err := Parse(s.Chain, s.seed())
	if err != nil {
		return nil, fmt.Errorf("spec: chain %q: %w", s.Name, err)
	}
	return nfs, nil
}

// seed returns the effective table seed (default 1).
func (s *ChainSpec) seed() int64 {
	if s.Seed == 0 {
		return 1
	}
	return s.Seed
}

// EffectiveBatchSize returns the injection batch size (default 64).
func (s *ChainSpec) EffectiveBatchSize() int {
	if s.BatchSize <= 0 {
		return 64
	}
	return s.BatchSize
}

// WantSynthesize reports whether NF-level synthesis is enabled (default
// true).
func (s *ChainSpec) WantSynthesize() bool {
	return s.Synthesize == nil || *s.Synthesize
}

// ParseChainSpec decodes a JSON spec — the admin server's POST /chains
// body and nfctl's -f payload. Unknown fields are rejected; the fields'
// values are checked by Build, which the control plane runs once at
// admission.
func ParseChainSpec(data []byte) (ChainSpec, error) {
	var s ChainSpec
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&s); err != nil {
		return ChainSpec{}, fmt.Errorf("spec: bad chain spec JSON: %w", err)
	}
	return s, nil
}
