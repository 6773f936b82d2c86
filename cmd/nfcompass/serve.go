package main

import (
	"context"
	"fmt"
	"os"
	"os/signal"
	"sync"
	"syscall"
	"time"

	"nfcompass/internal/core"
	"nfcompass/internal/ingress"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/telemetry"
	"nfcompass/internal/traffic"
)

type serveOpts struct {
	addr      string
	duration  time.Duration
	shards    int
	pkt       int
	batchSize int
	seed      int64
}

// runServe is the `-serve` continuous mode: run replicas of the deployment
// on the sharded live dataplane, keep traffic flowing for the configured
// duration while the telemetry server exposes /metrics, /snapshot,
// /healthz, /trace.chrome, /spans, /bottleneck, /decisions and
// /debug/pprof, shift the traffic profile halfway through so the attached
// Adaptor has a drift to react to, then drain and print the final snapshot
// plus the decision journal.
//
// The replicas come from d.Build, so none of them shares an element
// instance with d.Graph, which the Adaptor's Observe executes functionally.
func runServe(d *core.Deployment, o serveOpts) error {
	// bl is the packets-per-batch: the injector passes the adaptor's live
	// interference-aware batch size; Observe samples keep the configured
	// size so the traffic profile stays comparable across observations.
	mk := func(size int, off int64, n, bl int) []*netpkt.Batch {
		var sd traffic.SizeDist = traffic.IMIX{}
		if size > 0 {
			sd = traffic.Fixed(size)
		}
		gen := traffic.NewGenerator(traffic.Config{
			Size: sd, Seed: o.seed + off, Flows: 256,
		})
		return gen.Batches(n, bl)
	}

	ctx, cancel := signal.NotifyContext(context.Background(),
		os.Interrupt, syscall.SIGTERM)
	defer cancel()

	// The flight recorder's spans and utilization samples are served at
	// /trace.chrome, /spans, /bottleneck and folded into /metrics.
	// Replicas keep per-flow order, which the NIC's flow steering gives
	// them; nothing re-sequences across shards.
	lp, err := newLivePlane(d, o.shards, false)
	if err != nil {
		return err
	}
	sp := lp.sp
	sp.Start(ctx)
	nic := ingress.NewNIC(sp.NumShards())

	adaptor := core.NewAdaptor(d)
	adaptor.Attach(sp)

	srv, err := telemetry.New(telemetry.Config{
		Source:   sp,
		Done:     sp.Done(),
		Journal:  adaptor.Journal(),
		Interval: time.Second,
		Flight:   lp.rec,
		Sampler:  lp.smp,
	})
	if err != nil {
		return err
	}
	addr, err := srv.Start(o.addr)
	if err != nil {
		return err
	}
	defer func() {
		sctx, scancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer scancel()
		srv.Shutdown(sctx)
	}()
	lp.smp.Start()
	fmt.Printf("\ntelemetry plane on http://%s  (/metrics /snapshot /healthz /trace.chrome /spans /bottleneck /decisions /debug/pprof)\n", addr)

	// Drain every output: Out(), and each shard's own channel when the
	// replicas release per shard.
	var drained sync.WaitGroup
	outs := []<-chan *netpkt.Batch{sp.Out()}
	for q := 0; sp.PerShardOut() && q < sp.NumShards(); q++ {
		outs = append(outs, sp.OutShard(q))
	}
	for _, out := range outs {
		drained.Add(1)
		go func(out <-chan *netpkt.Batch) {
			defer drained.Done()
			for range out {
			}
		}(out)
	}

	// Each replica's e2e latency probe is keyed by batch ID, and the flight
	// recorder observes by it, while each traffic generator restarts its IDs
	// at zero, so renumber across generators.
	var nextID uint64
	inject := func(bs []*netpkt.Batch) bool {
		for _, b := range bs {
			b.ID = nextID
			nextID++
			if !nic.Steer(ctx, sp, b) {
				return false
			}
		}
		return true
	}

	dur := o.duration
	if dur <= 0 {
		dur = time.Duration(1<<62 - 1) // until interrupted
	}
	start := time.Now()
	deadline := start.Add(dur)
	half := start.Add(dur / 2)
	observeEvery := dur / 10
	if observeEvery < 250*time.Millisecond {
		observeEvery = 250 * time.Millisecond
	}
	if observeEvery > 2*time.Second {
		observeEvery = 2 * time.Second
	}

	// Halfway through, the traffic profile shifts (packet sizes jump) so
	// the adaptor sees a drift beyond its threshold and re-allocates live.
	shiftTo := 1350
	if o.pkt >= 512 || o.pkt == 0 {
		shiftTo = 64
	}

	size := o.pkt
	shifted := false
	lastObs := time.Time{}
	batch := adaptor.BatchSize()
	var off int64
	if dur < time.Duration(1<<62-1) {
		fmt.Printf("running for %s (traffic shift at %s); interrupt to stop early\n",
			dur, dur/2)
	} else {
		fmt.Printf("running until interrupted (traffic shift after 15s)\n")
		half = start.Add(15 * time.Second)
	}
	for time.Now().Before(deadline) && ctx.Err() == nil {
		if !shifted && time.Now().After(half) {
			size = shiftTo
			shifted = true
			fmt.Printf("traffic shift: packet size %s -> %d bytes\n",
				sizeName(o.pkt), shiftTo)
		}
		if !inject(mk(size, 2000+off, 8, batch)) {
			break
		}
		off++
		if time.Since(lastObs) >= observeEvery || lastObs.IsZero() {
			lastObs = time.Now()
			if changed, err := adaptor.Observe(mk(size, 6000+off, 4, o.batchSize)); err != nil {
				fmt.Fprintf(os.Stderr, "nfcompass: observe: %v\n", err)
			} else if changed {
				fmt.Printf("adaptor re-allocated: epoch hot-swapped onto the running pipeline\n")
			}
			if nb := adaptor.BatchSize(); nb != batch {
				fmt.Printf("batch controller: %d -> %d packets/batch\n", batch, nb)
				batch = nb
			}
		}
		time.Sleep(time.Millisecond)
	}

	sp.CloseInput()
	drained.Wait()
	if err := sp.Wait(); err != nil {
		return err
	}
	lp.smp.Stop()

	// The drain verdict joins the decision journal so a post-mortem
	// /decisions read (or the printout below) carries the limiting
	// stage next to the placement decisions that produced it.
	rep := lp.report()
	adaptor.Journal().Record(core.Decision{
		Accepted:       true,
		Reason:         "bottleneck",
		Bottleneck:     rep.Limiting,
		BottleneckUtil: rep.LimitingUtil,
	})
	fmt.Printf("\ndecision journal (%d total):\n%s",
		adaptor.Journal().Total(), adaptor.Journal())
	return nil
}

func sizeName(pkt int) string {
	if pkt <= 0 {
		return "IMIX"
	}
	return fmt.Sprintf("%d", pkt)
}
