package dataplane

// Segment-fusion harness: device-resident chains must execute as single
// submissions (one H2D, chained kernels, one D2H) without ever changing
// what the pipeline computes — plus the bookkeeping that proves the
// savings (transfer counts, fused-segment counters, overlap accounting)
// and the allocation guard on the fused hot path.

import (
	"bytes"
	"context"
	"fmt"
	"reflect"
	"sync/atomic"
	"testing"

	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

// allGPUInterior places the hot-swap chain's three interior elements on the
// GPU — one three-element fused segment between the CPU-pinned endpoints.
func allGPUInterior() hetsim.Assignment {
	return hetsim.Assignment{
		1: {Mode: hetsim.ModeGPU},
		2: {Mode: hetsim.ModeGPU},
		3: {Mode: hetsim.ModeGPU},
	}
}

// TestFusionTransferCounts pins the acceptance bar directly: a 3-element
// all-GPU chain pays exactly one H2D and one D2H per batch (the unfused
// pipeline pays three of each), launches once per batch instead of three
// times, and records the elided copies in TransfersSaved.
func TestFusionTransferCounts(t *testing.T) {
	const batches, perBatch = 40, 16
	run := func(disable bool) OffloadSnapshot {
		outs, p, err := RunBatches(context.Background(), hotSwapChain(),
			Config{
				PreserveOrder: true,
				Assignment:    allGPUInterior(),
				// AggregateLimit 1 makes launch counts deterministic (no
				// opportunistic grouping), so the per-batch arithmetic below
				// is exact.
				Offload: &OffloadConfig{
					MaxOutstanding: 4, AggregateLimit: 1, DisableFusion: disable,
				},
			}, seqTraffic(5, batches, perBatch))
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != batches {
			t.Fatalf("emitted %d batches, want %d", len(outs), batches)
		}
		return p.snapshotOffload()
	}

	fused, unfused := run(false), run(true)

	if fused.H2DTransfers != batches || fused.D2HTransfers != batches {
		t.Fatalf("fused transfers h2d=%d d2h=%d, want %d each (one per batch)",
			fused.H2DTransfers, fused.D2HTransfers, batches)
	}
	if unfused.H2DTransfers != 3*batches || unfused.D2HTransfers != 3*batches {
		t.Fatalf("unfused transfers h2d=%d d2h=%d, want %d each (one per element visit)",
			unfused.H2DTransfers, unfused.D2HTransfers, 3*batches)
	}
	if fused.FusedSegments != batches {
		t.Fatalf("FusedSegments = %d, want %d", fused.FusedSegments, batches)
	}
	// Three members, so two interior hops of two copies each per batch.
	if fused.TransfersSaved != 4*batches {
		t.Fatalf("TransfersSaved = %d, want %d", fused.TransfersSaved, 4*batches)
	}
	if unfused.FusedSegments != 0 || unfused.TransfersSaved != 0 {
		t.Fatalf("unfused run recorded fusion: segments=%d saved=%d",
			unfused.FusedSegments, unfused.TransfersSaved)
	}
	if fused.KernelLaunches != batches {
		t.Fatalf("fused KernelLaunches = %d, want %d (one per batch)",
			fused.KernelLaunches, batches)
	}
	if unfused.KernelLaunches != 3*batches {
		t.Fatalf("unfused KernelLaunches = %d, want %d", unfused.KernelLaunches, 3*batches)
	}
	// One submission carries the whole chain.
	if fused.OffloadedBatches != batches {
		t.Fatalf("fused OffloadedBatches = %d, want %d", fused.OffloadedBatches, batches)
	}
	// The modeled device time must strictly shrink: same kernels, one
	// launch instead of three, entry/exit transfers instead of per-element.
	if fused.GPUBusyNs >= unfused.GPUBusyNs {
		t.Fatalf("fused GPUBusyNs = %d >= unfused %d", fused.GPUBusyNs, unfused.GPUBusyNs)
	}
	// With a submission window deeper than one buffer, the double-buffered
	// pipeline hides H2D time behind the previous group's kernels.
	if fused.OverlapNs == 0 {
		t.Fatalf("OverlapNs = 0 with MaxOutstanding=4: transfer pipelining never engaged")
	}
}

// TestFusionDifferential is the correctness proof for fusion: over random
// graphs (linear, diamond with duplicate/merge, classifier fan-out) and
// random CPU/GPU/split assignments, the fused pipeline emits exactly the
// unfused pipeline's multiset of per-packet outcomes, and its modeled
// device time never exceeds the unfused run's — strictly less whenever a
// fused segment actually elided transfers.
func TestFusionDifferential(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
		"fanout":  buildFanoutRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 6; trial++ {
			seed := 100*trial + 57
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				run := func(disable bool) ([]*netpkt.Batch, OffloadSnapshot) {
					outs, p, err := RunBatches(context.Background(), build(seed),
						Config{
							QueueDepth: 1 + int(trial%3),
							Assignment: randAssignment(build(seed), seed),
							// AggregateLimit 1 keeps launch grouping — and
							// with it GPUBusyNs — deterministic, so the
							// fused-vs-unfused comparison is exact, not
							// statistical.
							Offload: &OffloadConfig{
								MaxOutstanding: 1 + int(trial%4),
								AggregateLimit: 1,
								DisableFusion:  disable,
							},
						}, diffTraffic(seed, 24, 16))
					if err != nil {
						t.Fatal(err)
					}
					return outs, p.snapshotOffload()
				}
				fusedOut, fused := run(false)
				unfusedOut, unfused := run(true)

				want, got := multiset(unfusedOut), multiset(fusedOut)
				if len(want) != len(got) {
					t.Fatalf("distinct outcomes differ: unfused=%d fused=%d", len(want), len(got))
				}
				for k, n := range want {
					if got[k] != n {
						t.Fatalf("outcome %.40q: unfused=%d fused=%d", k, n, got[k])
					}
				}
				if fused.GPUBusyNs > unfused.GPUBusyNs {
					t.Fatalf("fused GPUBusyNs = %d > unfused %d", fused.GPUBusyNs, unfused.GPUBusyNs)
				}
				if fused.TransfersSaved > 0 && fused.GPUBusyNs >= unfused.GPUBusyNs {
					t.Fatalf("segments elided %d transfers but GPUBusyNs did not drop (%d vs %d)",
						fused.TransfersSaved, fused.GPUBusyNs, unfused.GPUBusyNs)
				}
			})
		}
	}
}

// TestFusionDifferentialExactOrder: with PreserveOrder on, fusion must be
// invisible to batch order and payload bytes — per-flow order is a corollary,
// since batches surface in injection order with identical contents.
func TestFusionDifferentialExactOrder(t *testing.T) {
	builders := map[string]func(int64) *element.Graph{
		"linear":  buildLinearRand,
		"diamond": buildDiamondRand,
	}
	for name, build := range builders {
		for trial := int64(0); trial < 4; trial++ {
			seed := 100*trial + 91
			t.Run(fmt.Sprintf("%s/%d", name, trial), func(t *testing.T) {
				run := func(disable bool) []*netpkt.Batch {
					outs, _, err := RunBatches(context.Background(), build(seed),
						Config{
							PreserveOrder: true, QueueDepth: 2,
							Assignment: randAssignment(build(seed), seed),
							Offload: &OffloadConfig{
								MaxOutstanding: 1 + int(trial%4),
								DisableFusion:  disable,
							},
						}, diffTraffic(seed, 30, 8))
					if err != nil {
						t.Fatal(err)
					}
					return outs
				}
				fusedOut, unfusedOut := run(false), run(true)
				if len(fusedOut) != len(unfusedOut) {
					t.Fatalf("batch counts differ: fused=%d unfused=%d", len(fusedOut), len(unfusedOut))
				}
				for i := range fusedOut {
					fb, ub := fusedOut[i], unfusedOut[i]
					if fb.ID != ub.ID || len(fb.Packets) != len(ub.Packets) {
						t.Fatalf("batch %d: id/count mismatch (%d/%d vs %d/%d)",
							i, fb.ID, len(fb.Packets), ub.ID, len(ub.Packets))
					}
					for j := range fb.Packets {
						fp, up := fb.Packets[j], ub.Packets[j]
						if fp.Dropped != up.Dropped {
							t.Fatalf("batch %d pkt %d: drop flag %v vs %v", fb.ID, j, fp.Dropped, up.Dropped)
						}
						if !fp.Dropped && !bytes.Equal(fp.Data, up.Data) {
							t.Fatalf("batch %d pkt %d: payload differs under fusion", fb.ID, j)
						}
					}
				}
			})
		}
	}
}

// TestHotSwapMidSegmentZeroLoss: hot-swapping between fused, split,
// unfused-GPU and CPU placements with submissions in flight loses zero
// packets, preserves batch order — at the sink and at every element — and
// never lets one element run a batch under two placements, or two segment
// identities, within one epoch. Fused segments forward their output
// straight from the head, so the epoch fence (compile.go) is all that keeps
// them behind stragglers: the into-fused rows swap with the probe's queue
// full, and the one where the member in front of it is on the CPU
// beforehand has that member submit its stragglers singly under the new
// epoch, still in flight when the fence reaches it.
func TestHotSwapMidSegmentZeroLoss(t *testing.T) {
	unfusedGPU := hetsim.Assignment{1: {Mode: hetsim.ModeGPU}, 3: {Mode: hetsim.ModeGPU}}
	splitMiddle := hetsim.Assignment{
		1: {Mode: hetsim.ModeGPU}, 2: {Mode: hetsim.ModeSplit, GPUFraction: 0.5}, 3: {Mode: hetsim.ModeGPU},
	}
	rows := map[string][]hetsim.Assignment{
		// Form, break (segment split into singletons), dissolve, re-form.
		"cycle":            {allGPUInterior(), splitMiddle, nil},
		"unfused-to-fused": {unfusedGPU, allGPUInterior()},
		"split-to-fused":   {splitMiddle, allGPUInterior()},
	}
	for name, swaps := range rows {
		for _, agg := range []int{1, 3} {
			for _, qd := range []int{1, 2} {
				t.Run(fmt.Sprintf("%s/agg=%d/qd=%d", name, agg, qd), func(t *testing.T) {
					g, probe := hotSwapProbeChain()
					p := auditHotSwap(t, g, qd,
						OffloadConfig{Devices: 2, MaxOutstanding: 4, AggregateLimit: agg}, swaps, 90, 10)
					if bad := probe.bad.Load(); bad != nil {
						t.Fatal(*bad)
					}
					if p.snapshotOffload().FusedSegments == 0 {
						t.Fatal("no fused segments executed: swap schedule never reached the fused placement")
					}
				})
			}
		}
	}
}

// fig7FusedChain is the dataplane build of the Fig. 7 evaluation chain:
// IPsec gateway -> IPv4 router -> DPI, nine offloadable elements that fuse
// into a single device-resident segment under an all-GPU placement.
func fig7FusedChain() *element.Graph {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	g, _, _ := nf.BuildChain([]*nf.NF{
		nf.NewIPsecGateway("ipsec", 0x10, []byte("0123456789abcdef"), []byte("auth")),
		nf.NewIPv4Router("router", trie.BuildDir24_8(&tr), "fus"),
		nf.NewDPI("dpi", []string{"attack", "root"}, []string{`[0-9]+\.exe`}),
	})
	return g
}

// TestFig7FusionBusyDrop pins the headline saving: on the paper's
// IPsec+IPv4+DPI chain under an all-GPU placement, fusing the chain into
// one device-resident segment cuts modeled GPU busy time per batch by at
// least 25% against per-element submission.
func TestFig7FusionBusyDrop(t *testing.T) {
	const batches, perBatch = 30, 64
	run := func(disable bool) OffloadSnapshot {
		g := fig7FusedChain()
		gen := traffic.NewGenerator(traffic.Config{Size: traffic.Fixed(64), Seed: 7, Flows: 32})
		_, p, err := RunBatches(context.Background(), g,
			Config{
				PreserveOrder: true,
				Assignment:    hetsim.AllGPU(g),
				Offload: &OffloadConfig{
					MaxOutstanding: 4, AggregateLimit: 1, DisableFusion: disable,
				},
			}, gen.Batches(batches, perBatch))
		if err != nil {
			t.Fatal(err)
		}
		return p.snapshotOffload()
	}
	fused, unfused := run(false), run(true)
	if fused.FusedSegments == 0 {
		t.Fatal("the all-GPU Fig. 7 chain produced no fused segments")
	}
	if fused.KernelLaunches > unfused.KernelLaunches {
		t.Fatalf("fusion increased launches: %d > %d", fused.KernelLaunches, unfused.KernelLaunches)
	}
	drop := 1 - float64(fused.GPUBusyNs)/float64(unfused.GPUBusyNs)
	if drop < 0.25 {
		t.Fatalf("GPU busy drop = %.1f%% (fused %d vs unfused %d), want >= 25%%",
			100*drop, fused.GPUBusyNs, unfused.GPUBusyNs)
	}
	t.Logf("Fig. 7 chain: GPU busy %.1f%% lower fused (%d vs %d ns), %d transfers saved",
		100*drop, fused.GPUBusyNs, unfused.GPUBusyNs, fused.TransfersSaved)
}

// TestOffloadSnapshotComplete audits by reflection that snapshotOffload
// copies every OffloadStats counter into a same-named OffloadSnapshot field
// — a new counter added to one side without the other fails here instead of
// silently reporting zero.
func TestOffloadSnapshotComplete(t *testing.T) {
	p, err := New(hotSwapChain(), Config{})
	if err != nil {
		t.Fatal(err)
	}
	sv := reflect.ValueOf(&p.Offload).Elem()
	st := sv.Type()
	for i := 0; i < st.NumField(); i++ {
		f := sv.Field(i)
		if u, ok := f.Addr().Interface().(*atomic.Uint64); ok {
			u.Store(uint64(1000 + i))
		}
	}
	snap := reflect.ValueOf(p.snapshotOffload())
	for i := 0; i < st.NumField(); i++ {
		name := st.Field(i).Name
		if _, ok := sv.Field(i).Addr().Interface().(*atomic.Uint64); !ok {
			continue
		}
		got := snap.FieldByName(name)
		if !got.IsValid() {
			t.Fatalf("OffloadSnapshot has no field %q for OffloadStats.%s", name, name)
		}
		if got.Uint() != uint64(1000+i) {
			t.Fatalf("OffloadSnapshot.%s = %d, want %d (snapshotOffload missed the field)",
				name, got.Uint(), 1000+i)
		}
	}
}

// TestFusedOffloadAllocs guards the fused hot path's allocation budget:
// in steady state a batch through a fused 3-element chain allocates
// nothing — the lane recycles its work items (with their per-member stats)
// and its completion queue's entries.
func TestFusedOffloadAllocs(t *testing.T) {
	const perRun = 16
	g := hotSwapChain()
	p, err := New(g, Config{
		PreserveOrder: true, QueueDepth: 4,
		Assignment: allGPUInterior(),
		Offload:    &OffloadConfig{MaxOutstanding: 4, AggregateLimit: 4},
	})
	if err != nil {
		t.Fatal(err)
	}
	p.Start(context.Background())
	defer func() {
		p.CloseInput()
		for range p.Out() {
		}
	}()

	in := seqTraffic(3, 2048, 16)
	next := 0
	// Warm up pools and lanes before measuring.
	for i := 0; i < 64; i++ {
		p.In() <- in[next]
		next++
		<-p.Out()
	}
	allocs := testing.AllocsPerRun(20, func() {
		for i := 0; i < perRun; i++ {
			p.In() <- in[next]
			next++
			<-p.Out()
		}
	})
	perBatch := allocs / perRun
	if perBatch > 0 {
		t.Fatalf("fused offload path allocates %.1f allocs/batch, want 0", perBatch)
	}
	t.Logf("fused offload path: %.1f allocs/batch", perBatch)
}

// BenchmarkFusedOffload drives a fused 3-element chain at steady state —
// the CI benchmark-smoke target for the offload hot path. The chain avoids
// TTL decrement so one batch can recirculate for the whole run without its
// packets mutating toward expiry.
func BenchmarkFusedOffload(b *testing.B) {
	g := element.NewGraph()
	src := g.Add(element.NewFromDevice("src"))
	chk := g.Add(element.NewCheckIPHeader("chk"))
	cnt := g.Add(element.NewCounter("cnt"))
	pnt := g.Add(element.NewPaint("paint", 3))
	dst := g.Add(element.NewToDevice("dst"))
	g.MustConnect(src, 0, chk)
	g.MustConnect(chk, 0, cnt)
	g.MustConnect(cnt, 0, pnt)
	g.MustConnect(pnt, 0, dst)
	p, err := New(g, Config{
		PreserveOrder: true, QueueDepth: 8,
		Assignment: allGPUInterior(),
		Offload:    &OffloadConfig{MaxOutstanding: 4},
	})
	if err != nil {
		b.Fatal(err)
	}
	p.Start(context.Background())
	defer func() {
		p.CloseInput()
		for range p.Out() {
		}
	}()
	batch := seqTraffic(5, 1, 32)[0]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		// PreserveOrder releases batches by sequential ID; the
		// recirculating batch needs a fresh one each lap.
		batch.ID = uint64(i)
		p.In() <- batch
		<-p.Out()
	}
}
