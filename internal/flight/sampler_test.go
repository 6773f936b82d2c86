package flight

import (
	"bytes"
	"math"
	"strings"
	"testing"
	"time"

	"nfcompass/internal/stats"
)

func TestSamplerUtilizationAndReport(t *testing.T) {
	r := New(Config{})
	hot := r.Lane(StageRead, 0)
	cold := r.Lane(StageDrain, 0)
	queued := r.Lane(StageRX, 0)
	depth := 12
	r.AddQueue(StageRX, 0, func() (int, int) { return depth, 16 })

	s := NewSampler(r, time.Hour) // manual ticks only
	s.Sample()                    // seed

	// Simulate one tick of work: the hot lane was busy ~100% of the
	// elapsed wall, the cold lane ~0, the queued lane half-busy with a
	// deep input queue.
	time.Sleep(20 * time.Millisecond)
	now := r.Now()
	hot.AddBusy(now)
	queued.AddBusy(now / 2)
	cold.AddBusy(now / 100)
	s.Sample()

	time.Sleep(5 * time.Millisecond)
	delta := r.Now() - now
	hot.AddBusy(delta)
	queued.AddBusy(delta / 2)
	depth = 15
	s.Sample()

	rep := s.Report()
	if rep.Limiting != StageRead {
		t.Fatalf("limiting = %q, want %q\n%s", rep.Limiting, StageRead, rep)
	}
	if rep.LimitingUtil < 0.5 || rep.LimitingUtil > 1.5 {
		t.Fatalf("limiting util %.2f implausible", rep.LimitingUtil)
	}
	if rep.HeadroomX < 1 {
		t.Fatalf("headroom %.2f < 1", rep.HeadroomX)
	}
	byStage := map[string]StageVerdict{}
	for _, v := range rep.Stages {
		byStage[v.Stage] = v
	}
	rx := byStage[StageRX]
	if !rx.HasQueue || rx.QueueFill <= 0 || rx.QueueMaxDepth != 15 {
		t.Fatalf("rx queue evidence missing: %+v", rx)
	}
	if rx.QueueGrowth <= 0 {
		t.Fatalf("rx queue growth %.1f, want > 0 (depth rose 12→15)", rx.QueueGrowth)
	}
	if drain := byStage[StageDrain]; drain.Utilization > rx.Utilization {
		t.Fatalf("drain (%.2f) ranked busier than rx (%.2f)", drain.Utilization, rx.Utilization)
	}
	if rep.String() == "" || rep.Ticks != 3 {
		t.Fatalf("report render/ticks wrong: ticks=%d", rep.Ticks)
	}
}

// TestSamplerScalesBusy: a lane that works half the wall clock but, by the
// observation rule, times one batch in Period() still reads 0.5 utilization
// — the sampler scales the observed time by the lane's counted/observed
// batch ratio. The recorder's clock is moved by hand, so the result does not
// depend on how this machine schedules the test.
func TestSamplerScalesBusy(t *testing.T) {
	r := New(Config{})
	l := r.Lane(StageRX, 0)
	s := NewSampler(r, time.Hour) // manual ticks only
	advance := func(d time.Duration) { r.origin = r.origin.Add(-d) }
	const batches, work, idle = 1024, 100 * time.Microsecond, 100 * time.Microsecond
	for id := uint64(0); id < batches; id++ {
		var t0 int64
		obs := l.Observe(id)
		if obs {
			t0 = l.Now()
		}
		advance(work)
		if obs {
			t1 := l.Now()
			l.AddBusy(t1 - t0)
			l.Span(id, 64, t0, t1)
		}
		advance(idle)
		if id%256 == 255 {
			s.Sample()
		}
	}
	row := r.Samples()[0]
	if row.Batches != batches || row.Observed == 0 || row.Observed > batches/8 {
		t.Fatalf("lane counted %d batches, observed %d; want %d and about 1 in %d", row.Batches, row.Observed, batches, Period())
	}
	if raw := float64(row.BusyNs) / float64(r.Now()); raw > 0.1 {
		t.Fatalf("unscaled busy share %.3f: the lane timed more than the observed batches", raw)
	}
	rep := s.Report()
	if rep.Limiting != StageRX || math.Abs(rep.LimitingUtil-0.5) > 0.1 {
		t.Fatalf("utilization %.3f of %q, want 0.5 ± 0.1\n%s", rep.LimitingUtil, rep.Limiting, rep)
	}
}

func TestSamplerEmptyReport(t *testing.T) {
	s := NewSampler(New(Config{}), time.Hour)
	s.Sample()
	rep := s.Report()
	if rep.Limiting != "" || len(rep.Stages) != 0 {
		t.Fatalf("empty recorder should yield empty report: %+v", rep)
	}
	if got := rep.String(); got == "" {
		t.Fatal("empty report should still render")
	}
}

// TestBottleneckReportAligns: the stage column fits the longest stage name,
// so an element lane like nf:seg0/ipsec0#0/esp does not shift the columns
// after it.
func TestBottleneckReportAligns(t *testing.T) {
	rep := &BottleneckReport{Limiting: "nf:seg0/ipsec0#0/esp", Stages: []StageVerdict{
		{Stage: "nf:seg0/ipsec0#0/esp", Lanes: 1, Utilization: 0.5},
		{Stage: StageRead, Lanes: 4, Utilization: 0.14},
		{Stage: "shard", Lanes: 2, HasQueue: true, QueueFill: 0.25, QueueGrowth: 3},
	}}
	lines := strings.Split(strings.TrimSuffix(rep.String(), "\n"), "\n")[1:]
	if len(lines) != 4 {
		t.Fatalf("%d table lines, want a header and 3 rows:\n%s", len(lines), rep)
	}
	for i, l := range lines {
		if len(l) != len(lines[0]) || i > 0 && strings.Index(l, "%") != strings.Index(lines[1], "%") {
			t.Fatalf("columns do not line up:\n%s", rep)
		}
	}
}

func TestSamplerStartStop(t *testing.T) {
	r := New(Config{})
	l := r.Lane(StageRead, 0)
	s := NewSampler(r, time.Millisecond)
	s.Start()
	deadline := time.Now().Add(time.Second)
	for time.Now().Before(deadline) {
		l.AddBusy(1000)
		if func() bool { s.mu.Lock(); defer s.mu.Unlock(); return s.ticks >= 3 }() {
			break
		}
		time.Sleep(time.Millisecond)
	}
	s.Stop()
	s.Stop() // idempotent
	if s.Report().Ticks < 3 {
		t.Fatalf("sampler goroutine recorded %d ticks, want >= 3", s.Report().Ticks)
	}
}

// TestSamplerTickAllocBudget bounds the per-tick allocation cost: the
// Samples() snapshot slices dominate and scale with lane count, not with
// traffic.
func TestSamplerTickAllocBudget(t *testing.T) {
	r := New(Config{})
	for i := 0; i < 8; i++ {
		r.Lane(StageRX, i).AddBusy(100)
		r.AddQueue(StageRing, i, func() (int, int) { return 1, 64 })
	}
	s := NewSampler(r, time.Hour)
	s.Sample()
	allocs := testing.AllocsPerRun(100, func() { s.Sample() })
	if allocs > 64 {
		t.Fatalf("sampler tick allocates %v/op, want <= 64", allocs)
	}
}

func TestSamplerStallDoesNotCountAsBusy(t *testing.T) {
	r := New(Config{})
	stalled := r.Lane(StageInject, 0)
	worker := r.Lane(StageRX, 0)
	s := NewSampler(r, time.Hour)
	s.Sample()
	time.Sleep(10 * time.Millisecond)
	now := r.Now()
	stalled.AddStall(now) // blocked the whole tick
	worker.AddBusy(now / 2)
	s.Sample()
	rep := s.Report()
	if rep.Limiting != StageRX {
		t.Fatalf("limiting = %q; a fully-stalled stage must not outrank a half-busy one\n%s",
			rep.Limiting, rep)
	}
	var inj StageVerdict
	for _, v := range rep.Stages {
		if v.Stage == StageInject {
			inj = v
		}
	}
	if inj.StallFrac <= 0.5 {
		t.Fatalf("inject stall fraction %.2f, want > 0.5", inj.StallFrac)
	}
}

func TestSamplerPrometheusLint(t *testing.T) {
	r := New(Config{})
	r.Lane(StageRead, 0).AddBusy(1000)
	r.AddQueue(StageRing, 0, func() (int, int) { return 3, 8 })
	s := NewSampler(r, time.Hour)
	s.Sample()
	time.Sleep(2 * time.Millisecond)
	r.Lane(StageRead, 0).AddBusy(1000)
	s.Sample()

	var buf bytes.Buffer
	s.WritePrometheus(&buf)
	if buf.Len() == 0 {
		t.Fatal("sampler exposition empty")
	}
	if err := stats.ValidateExposition(&buf); err != nil {
		t.Fatalf("sampler exposition fails lint: %v\n%s", err, buf.String())
	}
}
