package ingress

import (
	"context"
	"testing"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
	"nfcompass/internal/netpkt"
)

// TestPumpFlightCleanRun: a healthy ring-shape run records spans on every
// ingress stage, accumulates busy time, and books nothing in the loss
// ledger — zero drops must mean a zero ledger, or loss attribution would
// cry wolf.
func TestPumpFlightCleanRun(t *testing.T) {
	capt := capture(t, 600, 64, 11)
	const shards = 2
	nic := NewNIC(shards)
	rec := flight.New(flight.Config{})
	sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
		Shards:   shards,
		Config:   dataplane.Config{QueueDepth: 4, Metrics: true, Flight: rec},
		ShardOut: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0), Loops: 2})
	defer src.Close()
	st, err := Pump(context.Background(), src, sp, nil, PumpConfig{
		BatchSize: 32,
		NIC:       nic,
		RXWorkers: shards,
		Flight:    rec,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Packets == 0 || st.OutPackets == 0 {
		t.Fatalf("degenerate run: %+v", st)
	}
	if total := rec.Ledger().Total(); total != 0 {
		t.Fatalf("clean run booked %d lost packets: %s", total, rec.Ledger())
	}

	stages := map[string]bool{}
	for _, sp := range rec.Spans() {
		stages[sp.Stage] = true
	}
	// StageConntrack is absent by design here: the run sets no FlowTTL, so
	// no conntrack sweep ever executes.
	for _, want := range []string{flight.StageRead, flight.StageRX, flight.StageInject,
		flight.StageDrain, flight.StageRelease} {
		if !stages[want] {
			t.Errorf("no spans recorded for stage %q (got %v)", want, stages)
		}
	}
	var busy int64
	for _, s := range rec.Samples() {
		if s.Stage == flight.StageRead || s.Stage == flight.StageRX {
			busy += s.BusyNs
		}
	}
	if busy == 0 {
		t.Error("read/rx stages accumulated no busy time")
	}
}

// TestPumpFlightLedgerReconciles: in both pump shapes, every packet a reader
// took from the source is forwarded, dropped by the chain, or attributed to
// a {stage, reason} in the loss ledger — exactly, with pool poisoning armed
// and a zero arena ledger on top. The context is cancelled before the run,
// so the abort paths do the releasing: the inline queue's refused flush, and
// the ring readers' unsent read batches.
func TestPumpFlightLedgerReconciles(t *testing.T) {
	netpkt.SetPoolPoison(true)
	defer netpkt.SetPoolPoison(false)

	capt := capture(t, 400, 64, 97)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()

	for _, row := range []struct {
		name                     string
		shards, readers, workers int
	}{
		{"inline", 1, 1, 0},
		{"rings", 4, 1, 4},
		{"split-rings", 4, 4, 4},
	} {
		t.Run(row.name, func(t *testing.T) {
			nic := NewNIC(row.shards)
			rec := flight.New(flight.Config{})
			sp, err := dataplane.NewSharded(statelessChainBuild, dataplane.ShardedConfig{
				Shards:   row.shards,
				Config:   dataplane.Config{QueueDepth: 2, Flight: rec},
				ShardOut: row.readers > 1,
			})
			if err != nil {
				t.Fatal(err)
			}
			src := memSource(t, capt, PcapConfig{Arena: nic.Arena(0), Loops: 4})
			defer src.Close()
			st, err := Pump(ctx, src, sp, nil, PumpConfig{BatchSize: 32, NIC: nic, RXWorkers: row.readers, Flight: rec})
			if err == nil {
				t.Fatal("pump on a cancelled context returned nil error")
			}
			if st == nil {
				t.Fatal("no stats returned alongside the abort error")
			}
			if st.Readers != row.readers || st.Workers != row.workers {
				t.Fatalf("ran %d readers and %d queue workers, want %d and %d", st.Readers, st.Workers, row.readers, row.workers)
			}
			lg := rec.Ledger()
			if lg.Total() == 0 {
				t.Fatal("aborted run booked nothing in the loss ledger")
			}
			if got, want := lg.Total(), st.Packets-st.OutPackets-st.Drops; got != want {
				t.Fatalf("ledger total %d != packets read minus packets out %d (%d - %d - %d): %s",
					got, want, st.Packets, st.OutPackets, st.Drops, lg)
			}
			for q := 0; q < row.shards; q++ {
				if n := nic.Arena(q).Outstanding(); n != 0 {
					t.Fatalf("arena %d: %d packets outstanding after aborted run", q, n)
				}
			}
		})
	}
}
