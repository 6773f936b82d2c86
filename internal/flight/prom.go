package flight

import (
	"io"
	"strconv"

	"nfcompass/internal/stats"
)

// Prometheus exposition for the recorder and sampler. All families carry
// the nfcompass_flight_ prefix; {stage, lane} label the per-worker rows
// and {stage, reason} label the loss ledger. Stage and reason values are
// free-form strings (element names come from user chain specs) and go
// through the standard label escaping. Cold path: runs per scrape.

// WritePrometheus writes the recorder's lane meters, queue probes, and
// loss ledger in exposition format. Families with no rows are omitted so
// the output stays promlint-clean.
func (r *Recorder) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	rows := r.Samples()

	var metered, queued int
	for i := range rows {
		if rows[i].Batches > 0 || rows[i].BusyNs > 0 || rows[i].StallNs > 0 {
			metered++
		}
		if rows[i].HasQueue {
			queued++
		}
	}

	if metered > 0 {
		for _, f := range []struct {
			name, help string
			val        func(*StageSample) uint64
		}{
			{"nfcompass_flight_spans_total", "Batches counted per stage lane (every batch, exact).",
				func(s *StageSample) uint64 { return s.Batches }},
			{"nfcompass_flight_observed_batches_total", "Batches timed and recorded as spans per stage lane: the sample behind the busy, stall and utilization series.",
				func(s *StageSample) uint64 { return s.Observed }},
			{"nfcompass_flight_stage_packets_total", "Packets carried by recorded spans per stage lane.",
				func(s *StageSample) uint64 { return s.Packets }},
			{"nfcompass_flight_stage_busy_ns_total", "Productive nanoseconds of the observed batches per stage lane.",
				func(s *StageSample) uint64 { return uint64(s.BusyNs) }},
			{"nfcompass_flight_stage_stall_ns_total", "Nanoseconds the observed batches spent blocked on a downstream stage per stage lane.",
				func(s *StageSample) uint64 { return uint64(s.StallNs) }},
		} {
			stats.PromHeader(w, f.name, "counter", f.help)
			eachMetered(rows, func(s *StageSample, l stats.Labels) {
				stats.PromCounter(w, f.name, l, f.val(s))
			})
		}
	}
	if queued > 0 {
		stats.PromHeader(w, "nfcompass_flight_queue_depth", "gauge",
			"Instantaneous queue occupancy (SPSC rings, shard inboxes) per stage lane.")
		eachQueued(rows, func(s *StageSample, l stats.Labels) {
			stats.PromGauge(w, "nfcompass_flight_queue_depth", l, float64(s.QueueLen))
		})
		stats.PromHeader(w, "nfcompass_flight_queue_capacity", "gauge",
			"Queue capacity per stage lane.")
		eachQueued(rows, func(s *StageSample, l stats.Labels) {
			stats.PromGauge(w, "nfcompass_flight_queue_capacity", l, float64(s.QueueCap))
		})
	}

	if entries := r.Ledger().Entries(); len(entries) > 0 {
		stats.PromHeader(w, "nfcompass_flight_drops_total", "counter",
			"Packets lost or released per {stage, reason} abort path.")
		for _, e := range entries {
			stats.PromCounter(w, "nfcompass_flight_drops_total",
				stats.Labels{"stage": e.Stage, "reason": e.Reason}, e.Packets)
		}
	}
}

// WritePrometheus writes the sampler's derived series: last-tick
// utilization and stall fraction per lane, plus the queue fill-ratio
// distribution.
func (s *Sampler) WritePrometheus(w io.Writer) {
	if s == nil {
		return
	}
	s.mu.Lock()
	type row struct {
		k  laneKey
		ls *laneSeries
	}
	rows := make([]row, 0, len(s.order))
	for _, k := range s.order {
		rows = append(rows, row{k, s.keys[k]})
	}
	s.mu.Unlock()
	if len(rows) == 0 {
		return
	}

	var utilRows, fillRows int
	for _, r := range rows {
		if r.ls.n > 0 {
			utilRows++
		}
		if r.ls.fillN > 0 {
			fillRows++
		}
	}
	if utilRows > 0 {
		stats.PromHeader(w, "nfcompass_flight_stage_utilization", "gauge",
			"Busy fraction of the last sampler tick per stage lane.")
		for _, r := range rows {
			if r.ls.n == 0 {
				continue
			}
			stats.PromGauge(w, "nfcompass_flight_stage_utilization",
				laneLabels(r.k.stage, r.k.lane), r.ls.lastUtil)
		}
		stats.PromHeader(w, "nfcompass_flight_stage_stall_fraction", "gauge",
			"Blocked-on-downstream fraction of the last sampler tick per stage lane.")
		for _, r := range rows {
			if r.ls.n == 0 {
				continue
			}
			stats.PromGauge(w, "nfcompass_flight_stage_stall_fraction",
				laneLabels(r.k.stage, r.k.lane), r.ls.lastStallFrac)
		}
	}
	if fillRows > 0 {
		stats.PromHeader(w, "nfcompass_flight_queue_fill_ratio", "histogram",
			"Sampled queue depth/capacity ratio per stage lane.")
		for _, r := range rows {
			if r.ls.fillN == 0 {
				continue
			}
			stats.PromHistogram(w, "nfcompass_flight_queue_fill_ratio",
				laneLabels(r.k.stage, r.k.lane), r.ls.fillHist.Snapshot())
		}
	}
}

func laneLabels(stage string, lane int) stats.Labels {
	return stats.Labels{"stage": stage, "lane": strconv.Itoa(lane)}
}

func eachMetered(rows []StageSample, f func(*StageSample, stats.Labels)) {
	for i := range rows {
		s := &rows[i]
		if s.Batches == 0 && s.BusyNs == 0 && s.StallNs == 0 {
			continue
		}
		f(s, laneLabels(s.Stage, s.Lane))
	}
}

func eachQueued(rows []StageSample, f func(*StageSample, stats.Labels)) {
	for i := range rows {
		s := &rows[i]
		if !s.HasQueue {
			continue
		}
		f(s, laneLabels(s.Stage, s.Lane))
	}
}
