package hetsim

import (
	"fmt"
	"math"

	"nfcompass/internal/element"
	"nfcompass/internal/netpkt"
)

// ReferenceRun exports the pre-split loop to the external test package.
var ReferenceRun = (*Simulator).referenceRun

// refPending is a batch waiting at a node with its ready time and data
// location (host memory or GPU device memory).
type refPending struct {
	b     *netpkt.Batch
	ready float64
	onGPU bool
}

// referenceRun is Simulator.Run as it was before the Execute/Price split: one
// loop that runs every element on every batch and prices the visit in the
// same step. It is kept, in this test file only, as what TestPriceMatchesRun
// holds the split to.
func (s *Simulator) referenceRun(batches []*netpkt.Batch, interarrivalNs float64) (*Result, error) {
	res := &Result{DroppedByElement: make(map[string]uint64)}
	nCores := s.P.CPUCores
	if s.CoRun.CPUCoreShare > 0 && s.CoRun.CPUCoreShare <= 1 {
		nCores = int(math.Max(1, math.Floor(float64(nCores)*s.CoRun.CPUCoreShare)))
	}
	cpuFree := make(pool, nCores)
	gpuFree := make(pool, s.P.GPUs)

	arrival := make(map[uint64]float64) // batch ID -> injection time
	var firstArrival, lastDeparture float64
	firstArrival = math.Inf(1)

	sources := s.G.Sources()
	sinks := map[element.NodeID]bool{}
	for _, id := range s.G.Sinks() {
		sinks[id] = true
	}

	// Stage-major scheduling: inject every batch, then drain the graph one
	// element at a time in topological order — the way a real pipeline's
	// elements each consume a stream of batches. Same-stage tasks have
	// similar ready times, so the server pools stay packed (batch-major
	// ordering would leave unfillable gaps on the cores).
	pending := make(map[element.NodeID][]refPending, s.G.Len())
	for bi, in := range batches {
		t0 := float64(bi) * math.Max(0, interarrivalNs)
		arrival[in.ID] = t0
		if t0 < firstArrival {
			firstArrival = t0
		}
		for _, src := range sources {
			pending[src] = append(pending[src], refPending{b: in, ready: t0})
		}
	}

	{
		for _, id := range s.order {
			entries := pending[id]
			if len(entries) == 0 {
				continue
			}
			el := s.G.Node(id)
			kind := el.Traits().Kind
			pl := s.Assign[id]
			succ := s.G.Successors(id)

			// Merge synchronization: all copies of one batch reach a
			// Merger with that batch's max ready time.
			if m, ok := el.(Merger); ok && m.ExpectedInputs() > 1 {
				maxReady := make(map[uint64]float64, len(entries)/m.ExpectedInputs()+1)
				for _, e := range entries {
					if e.ready > maxReady[e.b.ID] {
						maxReady[e.b.ID] = e.ready
					}
				}
				for i := range entries {
					entries[i].ready = maxReady[entries[i].b.ID]
				}
			}

			for _, ent := range entries {
				n := liveCount(ent.b)
				bytes := liveBytes(ent.b)

				// Snapshot exact memory probes around the functional call.
				var memBefore uint64
				prober, probes := el.(MemProber)
				if probes {
					memBefore = prober.MemAccesses()
				}
				outs := el.Process(ent.b)
				var memDelta float64
				if probes {
					memDelta = float64(prober.MemAccesses() - memBefore)
				}

				done := ent.ready
				outOnGPU := false
				switch {
				case n == 0:
					// Nothing live: zero service.
				case pl.Mode == ModeGPU:
					var svc float64
					if s.segInterior[id] {
						// Interior of a fused segment: the kernel chains
						// device-side behind the head's launch.
						svc = s.cm.KernelNs(kind, n, bytes, memDelta)
					} else {
						svc, _, _ = s.cm.GPUServiceNs(kind, n, bytes, memDelta)
						res.KernelLaunches++
					}
					if !ent.onGPU {
						svc += s.cm.H2DNs(bytes)
						res.H2DBytes += uint64(bytes)
					}
					done = gpuFree.run(ent.ready, svc)
					res.GPUBusyNs += svc
					outOnGPU = true
				case pl.Mode == ModeSplit:
					nGPU := int(math.Round(pl.GPUFraction * float64(n)))
					nCPU := n - nGPU
					bGPU := int(pl.GPUFraction * float64(bytes))
					bCPU := bytes - bGPU
					memGPU := memDelta * pl.GPUFraction
					memCPU := memDelta - memGPU

					// CPU/GPU split bookkeeping (the offload thread's
					// partitioning and completion-queue join) costs a
					// fixed per-batch slice, decoupled from the
					// element-branch re-organization of Fig. 5.
					reorg := s.P.SplitPerBatchNs * 2
					res.SplitEvents++

					ready := ent.ready
					if ent.onGPU {
						// The split is host-coordinated: fetch the batch
						// off the device first.
						d2h := s.cm.D2HNs(bytes)
						ready = gpuFree.run(ready, d2h)
						res.GPUBusyNs += d2h
						res.D2HBytes += uint64(bytes)
					}
					var cpuDone, gpuDone float64 = ready, ready
					if nCPU > 0 {
						svc := s.cm.CPUServiceNs(kind, nCPU, bCPU, memCPU) + reorg
						cpuDone = cpuFree.run(ready, svc)
						res.CPUBusyNs += svc
					}
					if nGPU > 0 {
						svc, h2d, d2h := s.cm.GPUServiceNs(kind, nGPU, bGPU, memGPU)
						svc += h2d + d2h // split halves rejoin in host memory
						gpuDone = gpuFree.run(ready, svc)
						res.GPUBusyNs += svc
						res.KernelLaunches++
						res.H2DBytes += uint64(bGPU)
						res.D2HBytes += uint64(bGPU)
					}
					// Completion-queue join preserves order: release at
					// the later of the two halves.
					done = math.Max(cpuDone, gpuDone)
				default:
					ready := ent.ready
					if ent.onGPU {
						// Crossing back to the host: device-to-host copy.
						d2h := s.cm.D2HNs(bytes)
						ready = gpuFree.run(ready, d2h)
						res.GPUBusyNs += d2h
						res.D2HBytes += uint64(bytes)
					}
					svc := s.cm.CPUServiceNs(kind, n, bytes, memDelta)
					done = cpuFree.run(ready, svc)
					res.CPUBusyNs += svc
				}

				if el.NumOutputs() == 0 {
					// Sink: record departure (sinks are host endpoints; a
					// device-resident batch was already fetched above
					// because sinks are CPU-placed).
					live := liveCount(ent.b)
					res.Emitted += uint64(live)
					if live > 0 {
						res.Latency.Add(done - arrival[ent.b.ID])
						res.Throughput.Packets += uint64(live)
						res.Throughput.Bytes += uint64(liveBytes(ent.b))
						if done > lastDeparture {
							lastDeparture = done
						}
					}
					countDrops(ent.b, res.DroppedByElement)
					continue
				}
				if len(outs) != el.NumOutputs() {
					return nil, fmt.Errorf("hetsim: %s emitted %d outputs, declared %d",
						el.Name(), len(outs), el.NumOutputs())
				}

				// Batch-split overhead: an element emitting multiple
				// non-empty sub-batches pays re-organization time on CPU.
				nonEmpty := 0
				for _, ob := range outs {
					if ob != nil && len(ob.Packets) > 0 {
						nonEmpty++
					}
				}
				if nonEmpty > 1 {
					if outOnGPU {
						// Branch re-organization is host-side work: the
						// batch comes off the device and stays there.
						d2h := s.cm.D2HNs(bytes)
						done = gpuFree.run(done, d2h)
						res.GPUBusyNs += d2h
						res.D2HBytes += uint64(bytes)
						outOnGPU = false
					}
					reorg := s.P.SplitPerBatchNs*float64(nonEmpty) +
						s.P.SplitPerPacketNs*float64(n)
					done = cpuFree.run(done, reorg)
					res.CPUBusyNs += reorg
					res.SplitEvents++
				}

				for port, ob := range outs {
					if ob == nil || len(ob.Packets) == 0 {
						continue
					}
					for _, to := range succ[port] {
						pending[to] = append(pending[to],
							refPending{b: ob, ready: done, onGPU: outOnGPU})
					}
				}
				countDrops(ent.b, res.DroppedByElement)
			}
		}
	}

	if lastDeparture > firstArrival {
		res.Throughput.Nanos = int64(lastDeparture - firstArrival)
	}
	return res, nil
}

func liveCount(b *netpkt.Batch) int {
	n := 0
	for _, p := range b.Packets {
		if !p.Dropped {
			n++
		}
	}
	return n
}

func liveBytes(b *netpkt.Batch) int {
	n := 0
	for _, p := range b.Packets {
		if !p.Dropped {
			n += len(p.Data)
		}
	}
	return n
}
