package flight

import (
	"fmt"
	"sort"
	"strings"
	"sync"

	"nfcompass/internal/stats"
)

// Reason strings used by the built-in drop/abort instrumentation. Free
// form — new paths pick their own — but shared constants keep the ledger
// reconcilable across subsystems.
const (
	ReasonCtxCanceled   = "ctx-canceled"   // read batch aborted by context
	ReasonInjectRefused = "inject-refused" // InjectShard declined the batch
	ReasonAbandoned     = "abandoned"      // swept from closed SPSC rings
	ReasonSinkError     = "sink-error"     // sink.Consume returned an error
	ReasonCanceled      = "canceled"       // stranded inside the pipeline
)

// Ledger is the loss-attribution table: a {stage, reason} → packet count
// map. Every drop or abort path books the packets it released so that
//
//	packets_in == packets_out + pipeline_drops + ledger.Total()
//
// holds exactly and reconciles with the netpkt Arena.Outstanding audit.
// Hot paths pre-resolve a *stats.Counter with Counter() and increment it
// lock-free; cold abort paths call Add directly.
type Ledger struct {
	mu       sync.Mutex
	counters map[ledgerKey]*stats.Counter
}

type ledgerKey struct {
	stage  string
	reason string
}

func newLedger() *Ledger {
	return &Ledger{counters: make(map[ledgerKey]*stats.Counter)}
}

// Counter returns the cache-padded counter for (stage, reason), creating
// it on first use. Resolve once at startup for lock-free hot-path
// increments. Nil-safe: returns nil, and callers must nil-check before
// calling methods on the result (stats.Counter is not nil-safe).
func (lg *Ledger) Counter(stage, reason string) *stats.Counter {
	if lg == nil {
		return nil
	}
	k := ledgerKey{stage, reason}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	c, ok := lg.counters[k]
	if !ok {
		c = &stats.Counter{}
		lg.counters[k] = c
	}
	return c
}

// Add books n lost packets against (stage, reason). Nil-safe no-op.
func (lg *Ledger) Add(stage, reason string, n uint64) {
	if lg == nil || n == 0 {
		return
	}
	lg.Counter(stage, reason).Add(n)
}

// LossEntry is one ledger row.
type LossEntry struct {
	Stage   string `json:"stage"`
	Reason  string `json:"reason"`
	Packets uint64 `json:"packets"`
}

// Entries snapshots the ledger sorted by stage then reason. Zero-count
// rows (pre-registered counters that never fired) are included so the
// exposition shows every known drop path.
func (lg *Ledger) Entries() []LossEntry {
	if lg == nil {
		return nil
	}
	lg.mu.Lock()
	out := make([]LossEntry, 0, len(lg.counters))
	for k, c := range lg.counters {
		out = append(out, LossEntry{Stage: k.stage, Reason: k.reason, Packets: c.Load()})
	}
	lg.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Stage != out[j].Stage {
			return out[i].Stage < out[j].Stage
		}
		return out[i].Reason < out[j].Reason
	})
	return out
}

// Total sums every ledger row.
func (lg *Ledger) Total() uint64 {
	if lg == nil {
		return 0
	}
	lg.mu.Lock()
	defer lg.mu.Unlock()
	var t uint64
	for _, c := range lg.counters {
		t += c.Load()
	}
	return t
}

// String renders the non-zero rows as one line ("stage/reason=n ..."), or
// "clean" when nothing was lost.
func (lg *Ledger) String() string {
	var b strings.Builder
	for _, e := range lg.Entries() {
		if e.Packets == 0 {
			continue
		}
		if b.Len() > 0 {
			b.WriteByte(' ')
		}
		fmt.Fprintf(&b, "%s/%s=%d", e.Stage, e.Reason, e.Packets)
	}
	if b.Len() == 0 {
		return "clean"
	}
	return b.String()
}
