package main

import (
	"fmt"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
)

// livePlane is the dataplane every live run drives: replicas of the
// deployment under its placement, with metrics and the flight recorder on.
type livePlane struct {
	sp  *dataplane.ShardedPipeline
	rec *flight.Recorder
	smp *flight.Sampler
}

// newLivePlane builds shards replicas from d.Build under d.Assignment (empty
// when GTA is off): offloaded elements run through the emulated device
// backend. More than one shard releases into per-shard output channels.
// pin locks each shard's element goroutines to OS threads.
func newLivePlane(d *core.Deployment, shards int, pin bool) (*livePlane, error) {
	rec := flight.New(flight.Config{})
	sp, err := dataplane.NewSharded(d.Build, dataplane.ShardedConfig{
		Shards: shards,
		Config: dataplane.Config{
			QueueDepth: 8, Metrics: true,
			PinOSThread: pin,
			Flight:      rec,
			Assignment:  d.Assignment,
		},
		ShardOut: shards > 1,
	})
	if err != nil {
		return nil, err
	}
	return &livePlane{sp: sp, rec: rec, smp: flight.NewSampler(rec, flight.DefaultSampleInterval)}, nil
}

// report prints the drained plane: its aggregated snapshot, the loss
// ledger when anything was lost, and the bottleneck report, which it
// returns.
func (lp *livePlane) report() *flight.BottleneckReport {
	fmt.Printf("\ndataplane snapshot:\n%s", lp.sp.Snapshot())
	if lg := lp.rec.Ledger(); lg.Total() > 0 {
		fmt.Printf("\nloss attribution: %s\n", lg)
	}
	rep := lp.smp.Report()
	fmt.Printf("\nbottleneck report:\n%s", rep)
	return rep
}
