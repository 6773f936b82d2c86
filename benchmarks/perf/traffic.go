package main

import (
	"io"
	"runtime"
	"sync/atomic"
	"time"

	"nfcompass/internal/netpkt"
)

// phase is one stretch of a measured run. pps == 0 is the saturate phase, a
// closed loop: the source hands out packets as fast as the pump pulls, the
// plane back-pressures and never tail-drops, so the delivered rate is the
// zero-loss rate. pps > 0 is the paced phase, an open loop: packet i is due
// at start + i/pps whatever the plane does, and latency is timed from that
// due time so a stall charges every packet it delays.
type phase struct {
	start, warm, end int64 // ns since the run's t0; [start, warm) is discarded
	pps              float64
	winNs            int64
	wins             []window // tiles [start, end)
}

// window is one fixed slice of a phase at the sink.
type window struct {
	pkts uint64
	// lastNs is when the window's last batch reached the sink and cum the
	// live packets delivered by then, over the whole run: the rate between
	// two windows' last batches is exact, where pkts per nominal window
	// length is quantized by the bursts the plane delivers in.
	lastNs int64
	cum    uint64
	lat    logHist // sink time − due time, paced phases only
}

func newPhase(start, warm, length, winNs int64, pps float64) *phase {
	n := (length + winNs - 1) / winNs
	return &phase{start: start, warm: start + warm, end: start + length,
		pps: pps, winNs: winNs, wins: make([]window, n)}
}

// measured returns the windows that lie wholly after the warm-up and wholly
// before the end.
func (ph *phase) measured() []window {
	lo := (ph.warm - ph.start + ph.winNs - 1) / ph.winNs
	hi := (ph.end - ph.start) / ph.winNs
	if lo > hi {
		lo = hi
	}
	return ph.wins[lo:hi]
}

// lateNs is how long after its due time a paced packet may be handed to the
// pump before it counts into bench.gen_late_share.
const lateNs = 100_000

// source is the benchmark's load generator, called from the pump's own
// reader goroutine (no extra generator thread). It copies template frames
// into NIC-arena packets, parses them, and stamps FlowID and the due time.
//
// It reads the clock once per 32 packets when unpaced: a clock read per
// packet costs fwd64 about 15 % and doubles its spread. Paced, it reads the
// clock only while ahead of schedule, spinning with Gosched under 200 µs and
// sleeping above.
type source struct {
	tpl   *template
	arena *netpkt.Arena
	rekey bool
	t0    time.Time

	phases []*phase // nil: a finite unpaced run of limit packets
	limit  uint64

	ph   int
	phN  uint64 // packets emitted in the current phase
	n    uint64 // packets emitted in all
	now  int64
	idx  int
	pass uint64
	salt uint64

	paced, late uint64
	closed      atomic.Bool
}

func (s *source) clock() int64 { return time.Since(s.t0).Nanoseconds() }

// Next implements ingress.Source.
func (s *source) Next() (*netpkt.Packet, error) {
	var due int64
	if s.phases == nil {
		if s.n == s.limit || s.closed.Load() {
			return nil, io.EOF
		}
		if s.n&31 == 0 {
			s.now = s.clock()
		}
		due = s.now
	} else {
		for {
			if s.ph == len(s.phases) {
				return nil, io.EOF
			}
			ph := s.phases[s.ph]
			if ph.pps == 0 {
				if s.n&31 == 0 {
					s.now = s.clock()
					if s.closed.Load() {
						return nil, io.EOF
					}
				}
				due = s.now
			} else {
				due = ph.start + int64(float64(s.phN)*1e9/ph.pps)
				if s.now < due || s.n&31 == 0 {
					s.waitUntil(due)
					if s.closed.Load() {
						return nil, io.EOF
					}
				}
			}
			if due < ph.end {
				if ph.pps > 0 {
					s.paced++
					if s.now-due > lateNs {
						s.late++
					}
				}
				break
			}
			s.ph, s.phN = s.ph+1, 0
		}
		s.phN++
	}
	s.n++

	i := s.idx
	f := s.tpl.frames[i]
	p := s.arena.GetPacket(len(f))
	copy(p.Data, f)
	_ = p.Parse() // template frames are valid by construction
	p.FlowID = s.tpl.flows[i] ^ s.salt
	p.Arrival = due + 1 // 0 would read as "unstamped" to the pump's replay clock
	if s.idx++; s.idx == len(s.tpl.frames) {
		s.idx = 0
		if s.rekey {
			// splitmix64 of the pass number: every pass is a fresh flow set.
			s.pass++
			z := s.pass + 0x9e3779b97f4a7c15
			z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
			z = (z ^ (z >> 27)) * 0x94d049bb133111eb
			s.salt = (z ^ (z >> 31)) &^ 1 // keep bit 0: template ids are odd, so never 0
		}
	}
	return p, nil
}

func (s *source) waitUntil(due int64) {
	for {
		s.now = s.clock()
		d := due - s.now
		if d <= 0 || s.closed.Load() {
			return
		}
		if d > 200_000 {
			time.Sleep(time.Duration(d - 100_000))
		} else {
			runtime.Gosched()
		}
	}
}

// Close implements ingress.Source; it unblocks a paced wait.
func (s *source) Close() error {
	s.closed.Store(true)
	return nil
}

// dropTally counts policy drops of one reason (a slice, not a map: no
// allocation on the sink path, and a run sees a handful of reasons at most).
type dropTally struct {
	reason string
	n      uint64
}

// sink is the benchmark's terminal device, called from the pump's single
// drain goroutine. It reads the clock once per batch, books live packets into
// the current window (and, in paced phases, now − due time into that window's
// histogram), tallies policy drops by reason, and releases the batch.
type sink struct {
	t0      time.Time
	phases  []*phase
	ph      int
	collect bool // retain every output (verification runs)

	total    atomic.Uint64 // live packets delivered; read live by the meter
	firstOut int64         // ns since t0 of the first batch out
	drops    []dropTally
	outputs  []string
}

// Consume implements ingress.Sink.
func (k *sink) Consume(b *netpkt.Batch) error {
	now := time.Since(k.t0).Nanoseconds()
	if k.firstOut == 0 {
		k.firstOut = now | 1
	}
	var w *window
	var paced bool
	for k.ph < len(k.phases) && now >= k.phases[k.ph].end {
		k.ph++
	}
	if k.ph < len(k.phases) {
		ph := k.phases[k.ph]
		if i := (now - ph.start) / ph.winNs; now >= ph.start && int(i) < len(ph.wins) {
			w, paced = &ph.wins[i], ph.pps > 0
		}
	}
	live := uint64(0)
	for _, p := range b.Packets {
		if p == nil {
			continue
		}
		if p.Dropped {
			k.drop(p.DropReason)
			if k.collect {
				k.outputs = append(k.outputs, "drop:"+p.DropReason)
			}
			continue
		}
		live++
		if paced {
			w.lat.add(now - (p.Arrival - 1))
		}
		if k.collect {
			k.outputs = append(k.outputs, string(p.Data))
		}
	}
	cum := k.total.Add(live)
	if w != nil {
		w.pkts += live
		w.lastNs, w.cum = now, cum
	}
	b.Release()
	return nil
}

func (k *sink) drop(reason string) {
	for i := range k.drops {
		if k.drops[i].reason == reason {
			k.drops[i].n++
			return
		}
	}
	k.drops = append(k.drops, dropTally{reason, 1})
}

func (k *sink) dropped() uint64 {
	var n uint64
	for _, d := range k.drops {
		n += d.n
	}
	return n
}

// Close implements ingress.Sink.
func (k *sink) Close() error { return nil }
