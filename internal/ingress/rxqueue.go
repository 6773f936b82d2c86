package ingress

import (
	"context"
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"nfcompass/internal/dataplane"
	"nfcompass/internal/flight"
	"nfcompass/internal/flowtable"
	"nfcompass/internal/netpkt"
)

// pump is what one Pump run's readers and queues share.
type pump struct {
	ctx    context.Context
	sp     *dataplane.ShardedPipeline
	cfg    PumpConfig
	start  time.Time
	ft     *flowtable.Sharded[struct{}]
	clock  replayClock
	ids    atomic.Uint64 // next batch ID, drawn by every queue
	ledger *flight.Ledger
}

// replayClock is the pump's monotone replay clock. Readers feed packet
// arrival timestamps through Observe, which advances the clock with an
// atomic CAS-max so concurrent observers can never move it backwards; the
// conntrack TTL reads it through Now.
type replayClock struct{ v atomic.Int64 }

// Observe advances the clock to ns if ns is ahead of it.
func (c *replayClock) Observe(ns int64) {
	for {
		cur := c.v.Load()
		if ns <= cur || c.v.CompareAndSwap(cur, ns) {
			return
		}
	}
}

// Now reports the latest observed timestamp.
func (c *replayClock) Now() int64 { return c.v.Load() }

// reader is one source reader. Its counters are its own until Pump joins it.
type reader struct {
	*pump
	src Source
	nic *NIC
	// inline is the one queue this reader feeds on its own goroutine; nil
	// means it classifies each read batch and deals it into rings[queue].
	inline *rxQueue
	rings  []*spscRing
	lane   *flight.LaneRecorder // the ring shape's read lane, one span per read batch

	buf []*netpkt.Packet // the read batch
	qs  []int            // its queues
	seq uint64           // read batches handed on; the read lane's batch number
	obs bool             // the read batch is observed
	t0  int64            // when its first packet was read, if observed

	packets, bytes, released uint64
	err                      error
}

// run is the reader loop: it pulls the source dry, stamping the replay clock
// with each packet and counting it before handing it on, so the queue's
// conntrack touch never sees a clock ahead of the packet it touches. What was
// read before the source ended (or failed) is handed on too.
func (r *reader) run() {
	defer func() {
		for _, ring := range r.rings {
			ring.Close()
		}
	}()
	for {
		p, err := r.src.Next()
		if err != nil {
			if err != io.EOF {
				r.err = err
			}
			break
		}
		now := p.Arrival
		if now <= 0 {
			now = time.Since(r.start).Nanoseconds()
		}
		r.clock.Observe(now)
		r.packets++
		r.bytes += uint64(len(p.Data))
		if !r.put(p) {
			r.err = r.ctx.Err()
			return
		}
	}
	var ok bool
	if r.inline != nil {
		ok = r.inline.flush()
	} else {
		ok = len(r.buf) == 0 || r.handoff()
	}
	if !ok && r.err == nil {
		r.err = r.ctx.Err()
	}
}

// put hands one packet on: to the inline queue, or into the read batch,
// which is handed off once full. False means the run was cancelled.
func (r *reader) put(p *netpkt.Packet) bool {
	if r.inline != nil {
		return r.inline.add(p)
	}
	if len(r.buf) == 0 {
		if r.obs = r.lane.Observe(r.seq); r.obs {
			r.t0 = r.lane.Now()
		}
	}
	r.buf = append(r.buf, p)
	return len(r.buf) < r.cfg.BatchSize || r.handoff()
}

// handoff classifies the read batch with RSS and deals it into the rings. On
// a cancelled run it releases and ledgers whatever it did not deal, and
// reports false.
func (r *reader) handoff() bool {
	buf := r.buf
	r.buf = r.buf[:0]
	if r.ctx.Err() != nil {
		r.abort(buf)
		return false
	}
	r.qs = r.nic.QueueBatch(buf, r.qs[:0])
	var t1 int64
	if r.obs {
		// Busy covers read + RSS classify; the ring pushes below are
		// backpressure and accrue as stall.
		t1 = r.lane.Now()
		r.lane.AddBusy(t1 - r.t0)
	}
	for i, p := range buf {
		if !ringPush(r.ctx, r.rings[r.qs[i]], p) {
			r.abort(buf[i:])
			return false
		}
	}
	if r.obs {
		t2 := r.lane.Now()
		r.lane.AddStall(t2 - t1)
		r.lane.Span(r.seq, len(buf), r.t0, t2)
	}
	r.seq++
	return true
}

// abort releases read packets that will never reach a queue.
func (r *reader) abort(pkts []*netpkt.Packet) {
	releaseAll(pkts)
	r.ledger.Add(flight.StageRead, flight.ReasonCtxCanceled, uint64(len(pkts)))
	r.released += uint64(len(pkts))
}

// rxQueue is one NIC receive queue and whoever works it: its worker
// goroutine (serve), or the one reader when that reader is the queue's only
// source. It touches each packet's flow, gathers the queue's arena batch,
// injects it into the queue's own shard, sweeps expiry over the queue's
// conntrack stripes and samples the flow census. Its counters are its own
// until Pump joins it.
type rxQueue struct {
	*pump
	q            int
	arena        *netpkt.Arena
	expLo, expHi int // the conntrack stripes this queue sweeps
	// build spans gathering a batch, first packet to handoff: the rx lane
	// of a worker, the read lane of an inline reader.
	build, inject, conntrack *flight.LaneRecorder

	cur        *netpkt.Batch // the batch being gathered
	obs        bool          // cur is observed
	batchStart int64         // when cur was opened, if observed

	batches, flows, released uint64
	peak                     int
	err                      error
}

func (p *pump) newQueue(q, queues int, arena *netpkt.Arena) *rxQueue {
	rec := p.cfg.Flight
	return &rxQueue{pump: p, q: q, arena: arena,
		// Contiguous stripe ranges: the queues' sweeps together cover the
		// table every round and never visit one stripe twice.
		expLo: q * p.cfg.flowStripes / queues, expHi: (q + 1) * p.cfg.flowStripes / queues,
		inject: rec.Lane(flight.StageInject, q), conntrack: rec.Lane(flight.StageConntrack, q)}
}

func newFlow() struct{} { return struct{}{} }

// add touches p's flow and appends p to the open batch, opening one — with
// the next batch ID — if none is, and injecting it once full. False means the
// injection was refused: the run is over.
func (x *rxQueue) add(p *netpkt.Packet) bool {
	if x.ft.Touch(p.FlowID, newFlow) {
		x.flows++
	}
	if x.cur == nil {
		x.cur = x.arena.GetBatch(x.cfg.BatchSize)
		x.cur.ID = x.ids.Add(1) - 1
		if x.obs = x.build.Observe(x.cur.ID); x.obs {
			x.batchStart = x.build.Now()
		}
	}
	x.cur.Packets = append(x.cur.Packets, p)
	return len(x.cur.Packets) < x.cfg.BatchSize || x.flush()
}

// flush injects the open batch, if any, into the queue's shard, then sweeps
// the queue's stripes for stale flows. On a cancelled run it releases and
// ledgers the batch instead, and reports false.
func (x *rxQueue) flush() bool {
	b := x.cur
	if b == nil {
		return true
	}
	x.cur = nil
	n, id := len(b.Packets), b.ID
	var t1 int64
	if x.obs {
		t1 = x.build.Now()
		x.build.AddBusy(t1 - x.batchStart)
		x.build.Span(id, n, x.batchStart, t1)
	}
	// Checking ctx first keeps the send from racing a done context: with
	// buffered shard queues it can win after every shard has exited,
	// stranding the batch in a pipeline that never drains it.
	if x.ctx.Err() != nil || !x.sp.InjectShard(x.ctx, x.q, b) {
		b.Release()
		x.ledger.Add(flight.StageInject, flight.ReasonInjectRefused, uint64(n))
		x.released += uint64(n)
		return false
	}
	x.batches++
	x.inject.Observe(id)
	var t2 int64
	if x.obs {
		// Shard-inbox wait is backpressure, not work.
		t2 = x.inject.Now()
		x.inject.AddStall(t2 - t1)
		x.inject.Span(id, n, t1, t2)
	}
	if x.cfg.FlowTTL > 0 {
		x.conntrack.Observe(id)
		x.ft.ExpireTailRange(x.expLo, x.expHi, x.cfg.expiryBudget)
		if x.obs {
			t3 := x.conntrack.Now()
			x.conntrack.AddBusy(t3 - t2)
			x.conntrack.Span(id, 0, t2, t3)
		}
	}
	x.peak = max(x.peak, x.ft.Len())
	return true
}

// serve is the queue's worker loop: it pops the queue's rings (one per
// reader) until every reader has closed its ring and the rings are empty,
// pushing a partial batch out whenever the rings run dry for a while rather
// than sitting on its latency.
func (x *rxQueue) serve(rings []*spscRing) {
	idle := 0
	for {
		got := false
		for _, ring := range rings {
			for p, ok := ring.Pop(); ok; p, ok = ring.Pop() {
				got = true
				if !x.add(p) {
					x.abandon(rings)
					return
				}
			}
		}
		if got {
			idle = 0
			continue
		}
		idle++
		done := true
		for _, ring := range rings {
			done = done && ring.Drained()
		}
		if (done || idle >= 8) && !x.flush() {
			x.abandon(rings)
			return
		}
		if done {
			return
		}
		if idle < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(10 * time.Microsecond)
		}
	}
}

// abandon ends a cancelled worker: it records the error and releases
// everything still queued (or arriving) on its rings, booking each packet as
// a ring-stage loss. Readers observe the same cancellation and close their
// rings; the bounded wait covers a reader stuck in a blocking Next, which
// hands nothing on once it sees the cancellation.
func (x *rxQueue) abandon(rings []*spscRing) {
	x.err = x.ctx.Err()
	var lost uint64
	for attempt := 0; attempt < 1024; attempt++ {
		done := true
		for _, ring := range rings {
			for p, ok := ring.Pop(); ok; p, ok = ring.Pop() {
				netpkt.PutPacket(p)
				lost++
			}
			done = done && ring.Drained()
		}
		if done {
			break
		}
		runtime.Gosched()
		time.Sleep(50 * time.Microsecond)
	}
	x.ledger.Add(flight.StageRing, flight.ReasonAbandoned, lost)
	x.released += lost
}

// ringPush spins a full ring until the slot frees or ctx dies. The ring is
// bounded backpressure: a slow worker stalls only the readers feeding it.
func ringPush(ctx context.Context, r *spscRing, p *netpkt.Packet) bool {
	for spins := 0; ; spins++ {
		if r.Push(p) {
			return true
		}
		if ctx.Err() != nil {
			return false
		}
		if spins < 128 {
			runtime.Gosched()
		} else {
			time.Sleep(5 * time.Microsecond)
		}
	}
}

// releaseAll returns read-but-undelivered packets to their arenas.
func releaseAll(pkts []*netpkt.Packet) {
	for _, p := range pkts {
		netpkt.PutPacket(p)
	}
}
