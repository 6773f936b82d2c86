package flight

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"time"

	"nfcompass/internal/stats"
)

// DefaultSampleInterval is the sampler tick used when none is given.
const DefaultSampleInterval = 250 * time.Millisecond

// depthWindow is how many recent queue-depth observations feed the
// growth-rate estimate per key.
const depthWindow = 32

// Sampler periodically polls a Recorder's lane meters and queue probes
// and maintains, per (stage, lane):
//
//   - utilization: Δbusy / (Δwall), the busy fraction of the tick — the
//     utilization-law input;
//   - stall fraction: Δstall / Δwall, time blocked on downstream — both
//     scaled by the lane's counted/observed batch ratio, because the meters
//     hold the time of observed batches only (see Observed);
//   - queue occupancy: instantaneous depth, fill-ratio histogram, and a
//     trailing-window growth rate (a persistently growing queue marks its
//     consumer as the limiting stage even before utilization saturates).
//
// Start launches the polling goroutine; Sample may also be called
// manually (tests, one-shot snapshots). Report applies the utilization
// law over everything sampled so far.
type Sampler struct {
	rec      *Recorder
	interval time.Duration

	mu    sync.Mutex
	keys  map[laneKey]*laneSeries
	order []laneKey
	ticks uint64

	stop chan struct{}
	done chan struct{}
}

type laneSeries struct {
	seeded    bool
	lastWall  int64 // recorder-origin ns of the previous tick
	lastBusy  int64
	lastStall int64

	n             int // utilization samples accumulated
	sumUtil       float64
	maxUtil       float64
	lastUtil      float64
	sumStall      float64
	lastStallFrac float64

	hasQueue bool
	lastLen  int
	lastCap  int
	maxLen   int
	sumFill  float64
	fillN    int
	fillHist *stats.ConcurrentHistogram

	depths    [depthWindow]int
	depthWall [depthWindow]int64
	dpos, dn  int
}

// DefaultRatioBounds is the bucket layout for 0..1 ratio histograms
// (queue fill, utilization).
func DefaultRatioBounds() []float64 {
	return []float64{0.1, 0.25, 0.5, 0.75, 0.9, 1.0}
}

// NewSampler builds a sampler over rec (interval <= 0 uses the default).
// Nil-safe: a nil rec yields a sampler whose Sample/Report are empty
// no-ops, so callers can wire it unconditionally.
func NewSampler(rec *Recorder, interval time.Duration) *Sampler {
	if interval <= 0 {
		interval = DefaultSampleInterval
	}
	return &Sampler{
		rec:      rec,
		interval: interval,
		keys:     make(map[laneKey]*laneSeries),
	}
}

// Start launches the polling goroutine. Stop halts it; Start after Stop
// is not supported.
func (s *Sampler) Start() {
	if s == nil || s.rec == nil || s.stop != nil {
		return
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	go func() {
		defer close(s.done)
		t := time.NewTicker(s.interval)
		defer t.Stop()
		for {
			select {
			case <-t.C:
				s.Sample()
			case <-s.stop:
				return
			}
		}
	}()
}

// Stop halts the polling goroutine and takes one final sample so short
// runs still produce a report. Safe to call twice or without Start.
func (s *Sampler) Stop() {
	if s == nil {
		return
	}
	if s.stop != nil {
		select {
		case <-s.stop:
		default:
			close(s.stop)
		}
		<-s.done
	}
	s.Sample()
}

// Sample polls the recorder once and folds the deltas into the per-key
// series. The steady-state allocation budget is bounded: after the first
// tick discovers every key, the only allocations are the Samples()
// snapshot slices.
func (s *Sampler) Sample() {
	if s == nil || s.rec == nil {
		return
	}
	now := s.rec.Now()
	rows := s.rec.Samples()
	s.mu.Lock()
	defer s.mu.Unlock()
	s.ticks++
	for i := range rows {
		row := &rows[i]
		k := laneKey{row.Stage, row.Lane}
		ls, ok := s.keys[k]
		if !ok {
			ls = &laneSeries{fillHist: stats.NewConcurrentHistogram(DefaultRatioBounds())}
			s.keys[k] = ls
			s.order = append(s.order, k)
		}
		if row.HasQueue {
			ls.hasQueue = true
			ls.lastLen, ls.lastCap = row.QueueLen, row.QueueCap
			if row.QueueLen > ls.maxLen {
				ls.maxLen = row.QueueLen
			}
			if row.QueueCap > 0 {
				fill := float64(row.QueueLen) / float64(row.QueueCap)
				ls.sumFill += fill
				ls.fillN++
				ls.fillHist.Add(fill)
			}
			ls.depths[ls.dpos] = row.QueueLen
			ls.depthWall[ls.dpos] = now
			ls.dpos = (ls.dpos + 1) % depthWindow
			if ls.dn < depthWindow {
				ls.dn++
			}
		}
		if !ls.seeded {
			// Seed at the recorder origin, not at this tick: lane meters
			// start at zero when the lane is created, so the first delta
			// window is "busy since start over wall since start" — runs
			// shorter than one interval still produce a real utilization
			// reading instead of a discarded seed tick.
			ls.seeded = true
			ls.lastWall, ls.lastBusy, ls.lastStall = 0, 0, 0
		}
		wall := now - ls.lastWall
		if wall <= 0 {
			continue
		}
		// The meters hold observed batches' time; the lane's own ratio of
		// counted to observed batches (≈ Period, exactly what its IDs drew)
		// makes them an estimate over every batch.
		scale := 1.0
		if row.Observed > 0 && row.Batches > row.Observed {
			scale = float64(row.Batches) / float64(row.Observed)
		}
		util := scale * float64(row.BusyNs-ls.lastBusy) / float64(wall)
		stall := scale * float64(row.StallNs-ls.lastStall) / float64(wall)
		if util < 0 {
			util = 0
		}
		if stall < 0 {
			stall = 0
		}
		ls.lastWall, ls.lastBusy, ls.lastStall = now, row.BusyNs, row.StallNs
		ls.n++
		ls.sumUtil += util
		ls.sumStall += stall
		ls.lastUtil = util
		ls.lastStallFrac = stall
		if util > ls.maxUtil {
			ls.maxUtil = util
		}
	}
}

// StageVerdict is one stage's aggregated row in a bottleneck report.
// Lanes of the same stage (e.g. four "rx" workers) are folded together:
// Utilization is the mean over lanes of mean per-tick busy fraction,
// HotLane the lane with the highest mean, HotUtil its value.
type StageVerdict struct {
	Stage string `json:"stage"`
	Lanes int    `json:"lanes"`

	Utilization float64 `json:"utilization"` // mean busy fraction across lanes
	HotLane     int     `json:"hot_lane"`    // busiest lane index
	HotUtil     float64 `json:"hot_util"`    // its mean busy fraction
	MaxUtil     float64 `json:"max_util"`    // peak single-tick busy fraction
	StallFrac   float64 `json:"stall_frac"`  // mean blocked-on-downstream fraction

	HasQueue      bool    `json:"has_queue,omitempty"`
	QueueFill     float64 `json:"queue_fill,omitempty"`   // mean depth/capacity
	QueueGrowth   float64 `json:"queue_growth,omitempty"` // packets/sec over trailing window
	QueueMaxDepth int     `json:"queue_max_depth,omitempty"`

	Score float64 `json:"score"` // ranking key: utilization + congestion evidence
}

// BottleneckReport names the limiting stage of a sampled run.
type BottleneckReport struct {
	Stages   []StageVerdict `json:"stages"` // ranked, most-limiting first
	Limiting string         `json:"limiting"`
	// LimitingUtil is the limiting stage's mean busy fraction.
	LimitingUtil float64 `json:"limiting_util"`
	// HeadroomX estimates how much more throughput the plane could carry
	// before the limiting stage saturates (1/utilization; 1 ≈ none).
	HeadroomX float64 `json:"headroom_x"`
	Ticks     uint64  `json:"ticks"`
}

// Report aggregates per-lane series into per-stage verdicts and applies
// the utilization law: the stage with the highest busy fraction bounds
// throughput; persistent queue growth on a stage's input promotes it when
// utilizations are close. Stall time deliberately does not count — a
// stage blocked pushing downstream is a victim, not the bottleneck.
func (s *Sampler) Report() *BottleneckReport {
	rep := &BottleneckReport{}
	if s == nil {
		return rep
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	rep.Ticks = s.ticks

	type agg struct {
		lanes     int
		sumUtil   float64
		hotLane   int
		hotUtil   float64
		maxUtil   float64
		sumStall  float64
		hasQueue  bool
		sumFill   float64
		fillLanes int
		growth    float64
		maxDepth  int
	}
	byStage := make(map[string]*agg)
	var stages []string
	for _, k := range s.order {
		ls := s.keys[k]
		a, ok := byStage[k.stage]
		if !ok {
			a = &agg{hotLane: -1}
			byStage[k.stage] = a
			stages = append(stages, k.stage)
		}
		a.lanes++
		var mean float64
		if ls.n > 0 {
			mean = ls.sumUtil / float64(ls.n)
			a.sumStall += ls.sumStall / float64(ls.n)
		}
		a.sumUtil += mean
		if a.hotLane < 0 || mean > a.hotUtil {
			a.hotLane, a.hotUtil = k.lane, mean
		}
		if ls.maxUtil > a.maxUtil {
			a.maxUtil = ls.maxUtil
		}
		if ls.hasQueue {
			a.hasQueue = true
			if ls.fillN > 0 {
				a.sumFill += ls.sumFill / float64(ls.fillN)
				a.fillLanes++
			}
			if ls.maxLen > a.maxDepth {
				a.maxDepth = ls.maxLen
			}
			a.growth += ls.growthRate()
		}
	}
	for _, st := range stages {
		a := byStage[st]
		v := StageVerdict{
			Stage:   st,
			Lanes:   a.lanes,
			HotLane: a.hotLane,
			HotUtil: a.hotUtil,
			MaxUtil: a.maxUtil,
		}
		if a.lanes > 0 {
			v.Utilization = a.sumUtil / float64(a.lanes)
			v.StallFrac = a.sumStall / float64(a.lanes)
		}
		if a.hasQueue {
			v.HasQueue = true
			if a.fillLanes > 0 {
				v.QueueFill = a.sumFill / float64(a.fillLanes)
			}
			v.QueueGrowth = a.growth
			v.QueueMaxDepth = a.maxDepth
		}
		// Ranking: busy fraction is the primary signal; a near-full or
		// persistently growing input queue is corroborating congestion
		// evidence worth a modest boost, enough to break near-ties.
		v.Score = v.Utilization
		if v.QueueFill > 0.5 {
			v.Score += 0.1 * v.QueueFill
		}
		if v.QueueGrowth > 0 && v.QueueFill > 0.25 {
			v.Score += 0.05
		}
		rep.Stages = append(rep.Stages, v)
	}
	sort.Slice(rep.Stages, func(i, j int) bool {
		if rep.Stages[i].Score != rep.Stages[j].Score {
			return rep.Stages[i].Score > rep.Stages[j].Score
		}
		return rep.Stages[i].Stage < rep.Stages[j].Stage
	})
	for i := range rep.Stages {
		v := &rep.Stages[i]
		if v.Utilization <= 0 {
			continue
		}
		rep.Limiting = v.Stage
		rep.LimitingUtil = v.Utilization
		if v.Utilization >= 1 {
			rep.HeadroomX = 1
		} else {
			rep.HeadroomX = 1 / v.Utilization
		}
		break
	}
	return rep
}

// growthRate estimates packets/sec of depth change over the trailing
// window (least evidence → 0).
func (ls *laneSeries) growthRate() float64 {
	if ls.dn < 2 {
		return 0
	}
	newest := (ls.dpos - 1 + depthWindow) % depthWindow
	oldest := ls.dpos
	if ls.dn < depthWindow {
		oldest = 0
	}
	dt := ls.depthWall[newest] - ls.depthWall[oldest]
	if dt <= 0 {
		return 0
	}
	return float64(ls.depths[newest]-ls.depths[oldest]) / (float64(dt) / 1e9)
}

// String renders the report as an aligned table with the verdict line
// first — what nfcompass -serve prints on drain.
func (r *BottleneckReport) String() string {
	var b strings.Builder
	if r.Limiting == "" {
		b.WriteString("bottleneck: none identified (no busy samples)\n")
	} else {
		fmt.Fprintf(&b, "bottleneck: limiting stage %q at %.0f%% utilization (headroom ≈ %.1fx)\n",
			r.Limiting, r.LimitingUtil*100, r.HeadroomX)
	}
	// The stage column is as wide as its longest name, so long element
	// stages keep the other columns aligned.
	w := len("stage")
	for _, v := range r.Stages {
		w = max(w, len(v.Stage))
	}
	fmt.Fprintf(&b, "  %-*s %5s %6s %6s %6s %6s %8s %8s\n",
		w, "stage", "lanes", "util", "hot", "max", "stall", "qfill", "qgrow/s")
	for _, v := range r.Stages {
		qf, qg := "-", "-"
		if v.HasQueue {
			qf = fmt.Sprintf("%.0f%%", v.QueueFill*100)
			qg = fmt.Sprintf("%+.0f", v.QueueGrowth)
		}
		fmt.Fprintf(&b, "  %-*s %5d %5.0f%% %5.0f%% %5.0f%% %5.0f%% %8s %8s\n",
			w, v.Stage, v.Lanes, v.Utilization*100, v.HotUtil*100, v.MaxUtil*100,
			v.StallFrac*100, qf, qg)
	}
	return b.String()
}
