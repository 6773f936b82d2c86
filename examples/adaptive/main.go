// Adaptive: demonstrates NFCompass's dynamic task adaption. An IDS
// deployment tuned for benign (no-match) traffic is hit by a content shift
// — every payload suddenly matches attack signatures, exploding the DFA
// walk depth. The Adaptor notices the drift through the elements' exact
// probe counters and re-runs the allocator; throughput recovers.
//
// It then runs the deployment on the sharded live dataplane and swaps the
// re-allocated placement onto it mid-traffic, to show the same graphs
// execute for real (goroutines + channels), not only under the platform
// simulator.
//
// Run with:
//
//	go run ./examples/adaptive
package main

import (
	"context"
	"fmt"
	"log"

	"nfcompass/internal/core"
	"nfcompass/internal/dataplane"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
)

func main() {
	patterns := []string{"attack", "malware", "exploit"}
	mk := func(profile traffic.PayloadProfile, seed int64, n int) []*netpkt.Batch {
		gen := traffic.NewGenerator(traffic.Config{
			Size: traffic.Fixed(512), Payload: profile,
			MatchTokens: patterns, Seed: seed, Flows: 64,
		})
		return gen.Batches(n, 64)
	}

	platform := hetsim.DefaultPlatform()
	chain := []*nf.NF{nf.NewIDS("ids", patterns, false)}

	// Deploy against benign traffic.
	d, err := core.Deploy(chain, platform, mk(traffic.PayloadRandom, 1, 8), core.DefaultOptions())
	if err != nil {
		log.Fatal(err)
	}
	show := func(label string) {
		res, err := d.Simulate(mk(traffic.PayloadFullMatch, 2, 40), 0)
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("%-28s %7.2f Gbps on full-match traffic\n", label, res.Throughput.Gbps())
	}
	show("tuned for benign traffic:")

	// The traffic shifts; the adaptor observes and re-allocates.
	a := core.NewAdaptor(d)
	if _, err := a.Observe(mk(traffic.PayloadRandom, 3, 4)); err != nil {
		log.Fatal(err) // primes the signature with the old profile
	}
	changed, err := a.Observe(mk(traffic.PayloadFullMatch, 4, 4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("adaptor observed shift: re-allocated=%v (%d total)\n",
		changed, a.Reallocations)
	show("after dynamic adaptation:")

	// Live assignment hot-swap on the sharded dataplane. The sharded
	// pipeline starts with every element on the CPU; mid-traffic a fresh
	// adaptor observes the content shift, re-allocates, and — because it is
	// Attached to the running pipeline — atomically swaps the new placement
	// onto every replica without dropping a packet or reordering a flow.
	sp, err := dataplane.NewSharded(d.Build, dataplane.ShardedConfig{
		Config: dataplane.Config{
			Metrics: true,
		},
		Shards: 2,
	})
	if err != nil {
		log.Fatal(err)
	}
	ctx := context.Background()
	sp.Start(ctx)
	var souts []*netpkt.Batch
	collected := make(chan struct{})
	go func() {
		defer close(collected)
		for b := range sp.Out() {
			souts = append(souts, b)
		}
	}()

	// The NIC steers each flow to one replica. Batch IDs key the latency
	// probe, so renumber across the two traffic bursts (each generator
	// restarts its IDs at zero).
	nic := ingress.NewNIC(sp.NumShards())
	var nextID uint64
	inject := func(bs []*netpkt.Batch) {
		for _, b := range bs {
			b.ID = nextID
			nextID++
			nic.Steer(ctx, sp, b)
		}
	}
	inject(mk(traffic.PayloadFullMatch, 5, 10)) // first half: CPU-only epoch

	a2 := core.NewAdaptor(d)
	a2.Attach(sp) // re-allocations now hot-swap the running pipeline
	if _, err := a2.Observe(mk(traffic.PayloadRandom, 6, 4)); err != nil {
		log.Fatal(err) // primes the signature with the benign profile
	}
	swapped, err := a2.Observe(mk(traffic.PayloadFullMatch, 7, 4))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("mid-traffic adaptation: hot-swapped=%v\n", swapped)

	inject(mk(traffic.PayloadFullMatch, 8, 10)) // second half: new epoch
	sp.CloseInput()
	<-collected
	if err := sp.Wait(); err != nil {
		log.Fatal(err)
	}
	rep := sp.Snapshot()
	fmt.Printf("sharded dataplane (%d replicas): %d batches in, %d out, %d packets, epoch=%d swaps=%d\n",
		sp.NumShards(), rep.InBatches, len(souts),
		rep.OutPackets, rep.Offload.Epoch, rep.Offload.Swaps)
	fmt.Print(rep)
}
