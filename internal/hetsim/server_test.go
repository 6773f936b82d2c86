package hetsim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestServerEarliestStartEmptySchedule(t *testing.T) {
	var s server
	if got := s.earliestStart(10, 5); got != 10 {
		t.Errorf("earliestStart = %v", got)
	}
}

func TestServerBackfillsGaps(t *testing.T) {
	var s server
	s.book(100, 50) // busy [100,150)
	// A 20-unit task ready at 0 fits before the booked interval.
	if got := s.earliestStart(0, 20); got != 0 {
		t.Errorf("earliestStart = %v, want 0 (backfill)", got)
	}
	s.book(0, 20)
	// A 90-unit task ready at 0 does not fit in [20,100): goes after 150.
	if got := s.earliestStart(0, 90); got != 150 {
		t.Errorf("earliestStart = %v, want 150", got)
	}
	// A 70-unit task fits into the [20,100) gap.
	if got := s.earliestStart(0, 70); got != 20 {
		t.Errorf("earliestStart = %v, want 20", got)
	}
}

// Bookings keep the timeline sorted and disjoint, touching ones coalesce
// into one interval, and the busy time on it is what was booked.
func TestServerBookKeepsSorted(t *testing.T) {
	var s server
	for _, b := range [][2]float64{{50, 10}, {10, 10}, {30, 10}, {20, 10}, {70, 5}, {40, 10}} {
		s.book(b[0], b[1])
	}
	busy := 0.0
	for i, iv := range s.busy {
		if i > 0 && iv[0] <= s.busy[i-1][1] {
			t.Fatalf("intervals unsorted or touching: %v", s.busy)
		}
		busy += iv[1] - iv[0]
	}
	if busy != 55 || len(s.busy) != 2 {
		t.Errorf("busy %v in %v, want 55 in [10,60] and [70,75]", busy, s.busy)
	}
}

// refServer is server as it was before bookings coalesced: one interval per
// booking, sorted by start, scanned from the front. It is kept, in this test
// file only, as what TestServerMatchesReference holds server to.
type refServer struct{ busy [][2]float64 }

func (s *refServer) earliestStart(ready, duration float64) float64 {
	start := ready
	for _, iv := range s.busy {
		if iv[1] <= start {
			continue
		}
		if iv[0]-start >= duration {
			return start
		}
		start = iv[1]
	}
	return start
}

func (s *refServer) book(start, duration float64) {
	iv := [2]float64{start, start + duration}
	i := len(s.busy)
	for i > 0 && s.busy[i-1][0] > start {
		i--
	}
	s.busy = append(s.busy, [2]float64{})
	copy(s.busy[i+1:], s.busy[i:])
	s.busy[i] = iv
}

// The coalesced timeline starts every task where the interval list did. Rows
// for the trap first — a zero-duration task may start on a booking boundary
// that coalescing merged away, and a zero-duration booking that touches
// nothing is a point a longer task may not straddle — then seeded random
// pool.run sequences on 1–8 servers: back-filling into gaps, bookings that
// touch exactly, zero durations, ready times on past boundaries. Every
// server answers every query with the list's start, bit for bit.
func TestServerMatchesReference(t *testing.T) {
	check := func(t *testing.T, s *server, ref *refServer, ready, d float64) {
		t.Helper()
		if got, want := s.earliestStart(ready, d), ref.earliestStart(ready, d); got != want {
			t.Fatalf("earliestStart(%v, %v) = %v, interval list %v (coalesced %v, list %v)", ready, d, got, want, s.busy, ref.busy)
		}
	}
	t.Run("trap", func(t *testing.T) {
		var s server
		var ref refServer
		for _, b := range [][2]float64{{0, 10}, {10, 10}, {30, 0}, {50, 5}, {55, 0}, {60, 0}} {
			s.book(b[0], b[1])
			ref.book(b[0], b[1])
		}
		for _, q := range [][2]float64{
			{5, 0}, {10, 0}, {15, 0}, {20, 0}, {52, 0}, {55, 0}, // on and inside merged boundaries
			{0, 5}, {5, 5}, {20, 15}, {25, 4}, {25, 5}, {25, 6}, {31, 25}, {56, 4}, {56, 5}, // around the points
		} {
			check(t, &s, &ref, q[0], q[1])
		}
	})
	for seed := int64(1); seed <= 200; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1 + rng.Intn(8)
		p, ref := make(pool, n), make([]refServer, n)
		marks := []float64{0}
		pick := func() float64 {
			switch r := rng.Intn(10); {
			case r < 4:
				return marks[rng.Intn(len(marks))]
			case r < 7:
				return float64(rng.Intn(1500))
			default:
				return rng.Float64() * 1500
			}
		}
		dur := func() float64 {
			switch r := rng.Intn(10); {
			case r < 2:
				return 0
			case r < 6:
				return float64(1 + rng.Intn(40))
			default:
				return rng.Float64() * 60
			}
		}
		for op := 0; op < 300; op++ {
			for probe := 0; probe < 3; probe++ {
				ready, d := pick(), dur()
				for i := range p {
					check(t, &p[i], &ref[i], ready, d)
				}
			}
			ready, d := pick(), dur()
			want := 0
			for i := range ref {
				if ref[i].earliestStart(ready, d) < ref[want].earliestStart(ready, d) {
					want = i
				}
			}
			start := ref[want].earliestStart(ready, d)
			ref[want].book(start, d)
			if got := p.run(ready, d); got != start+d {
				t.Fatalf("seed %d op %d: run(%v, %v) done at %v, interval list %v", seed, op, ready, d, got, start+d)
			}
			marks = append(marks, ready, start, start+d)
		}
	}
}

// Property: scheduling through earliestStart+book never produces
// overlapping intervals, and every start respects readiness.
func TestServerNoOverlapProperty(t *testing.T) {
	f := func(seed int64, taskBytes []byte) bool {
		rng := rand.New(rand.NewSource(seed))
		var s server
		for range taskBytes {
			ready := float64(rng.Intn(1000))
			dur := float64(rng.Intn(50) + 1)
			start := s.earliestStart(ready, dur)
			if start < ready {
				return false
			}
			s.book(start, dur)
		}
		for i := 1; i < len(s.busy); i++ {
			if s.busy[i][0] < s.busy[i-1][1]-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

// Property: a pool never starts a task before its ready time, and total
// completion is consistent (end = start + duration >= ready + duration).
func TestPoolRunProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := make(pool, int(n%4)+1)
		for i := 0; i < 200; i++ {
			ready := float64(rng.Intn(10000))
			dur := float64(rng.Intn(100) + 1)
			end := p.run(ready, dur)
			if end < ready+dur-1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

func TestPoolEmptyFallsThrough(t *testing.T) {
	var p pool
	if got := p.run(5, 7); got != 12 {
		t.Errorf("empty pool run = %v", got)
	}
}

// Simulation-level conservation invariants: emitted packets never exceed
// injected; throughput bytes match live sink bytes; busy time is bounded
// by makespan times pool size.
func TestRunConservationInvariants(t *testing.T) {
	g := chainGraph(ipsecNF("inv"), idsNF("ids"))
	s, err := NewSimulator(DefaultPlatform(), nil, g, UniformSplit(g, 0.5))
	if err != nil {
		t.Fatal(err)
	}
	batches := genBatches(40, 64, 256, 99)
	injected := uint64(0)
	for _, b := range batches {
		injected += uint64(b.Len())
	}
	res, err := s.Run(batches, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Emitted > injected {
		t.Errorf("emitted %d > injected %d", res.Emitted, injected)
	}
	dropped := uint64(0)
	for _, n := range res.DroppedByElement {
		dropped += n
	}
	if res.Emitted+dropped != injected {
		t.Errorf("conservation: %d emitted + %d dropped != %d injected",
			res.Emitted, dropped, injected)
	}
	makespan := float64(res.Throughput.Nanos)
	if res.CPUBusyNs > makespan*float64(DefaultPlatform().CPUCores)*1.0001 {
		t.Errorf("CPU busy %v exceeds capacity %v", res.CPUBusyNs,
			makespan*float64(DefaultPlatform().CPUCores))
	}
	if res.GPUBusyNs > makespan*float64(DefaultPlatform().GPUs)*1.0001 {
		t.Errorf("GPU busy %v exceeds capacity", res.GPUBusyNs)
	}
}

// Device residency: two adjacent GPU elements move each batch across PCIe
// once in each direction, not once per element.
func TestDeviceResidencySavesTransfers(t *testing.T) {
	g := chainGraph(ipsecNF("a"), ipsecNF("b"))
	// Offload both seal elements: chk elements stay on CPU, so the two
	// GPU elements are *not* adjacent (chk between them) — transfers per
	// batch: 2x(h2d+d2h).
	sNonAdj, _ := NewSimulator(DefaultPlatform(), nil, g, KindSplit(g, 1, "IPsecSeal"))
	rNonAdj, err := sNonAdj.Run(genBatches(20, 64, 256, 5), 0)
	if err != nil {
		t.Fatal(err)
	}

	g2 := chainGraph(ipsecNF("a"), ipsecNF("b"))
	// Offload everything: the whole interior of the chain is GPU-resident,
	// so each batch crosses once out and once back.
	sAdj, _ := NewSimulator(DefaultPlatform(), nil, g2, AllGPU(g2))
	rAdj, err := sAdj.Run(genBatches(20, 64, 256, 5), 0)
	if err != nil {
		t.Fatal(err)
	}
	if rAdj.H2DBytes >= rNonAdj.H2DBytes {
		t.Errorf("residency did not reduce H2D: %d vs %d",
			rAdj.H2DBytes, rNonAdj.H2DBytes)
	}
	if rAdj.D2HBytes >= rNonAdj.D2HBytes {
		t.Errorf("residency did not reduce D2H: %d vs %d",
			rAdj.D2HBytes, rNonAdj.D2HBytes)
	}
}
