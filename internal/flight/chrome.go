package flight

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
)

// chromeEvent is one Chrome trace_event record. Timestamps and durations
// are microseconds (the trace_event contract); pid/tid group spans into
// tracks — one tid per (stage, lane) so Perfetto shows a row per reader,
// per queue worker, per shard, and per element replica.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"`
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

type chromeTrace struct {
	Events          []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

// WriteChromeTrace renders the recorder's merged spans as Chrome
// trace_event JSON ("X" complete events plus thread-name metadata),
// loadable directly in Perfetto or chrome://tracing. Cold path: runs on
// snapshot/export only.
func (r *Recorder) WriteChromeTrace(w io.Writer) error {
	spans := r.Spans()

	// Stable track assignment: collect the distinct (stage, lane) keys,
	// sort, and number them so repeated exports of the same run lay out
	// identically.
	keys := make(map[laneKey]int)
	var order []laneKey
	for i := range spans {
		k := laneKey{spans[i].Stage, spans[i].Lane}
		if _, ok := keys[k]; !ok {
			keys[k] = 0
			order = append(order, k)
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].stage != order[j].stage {
			return order[i].stage < order[j].stage
		}
		return order[i].lane < order[j].lane
	})
	for i, k := range order {
		keys[k] = i + 1
	}

	tr := chromeTrace{
		Events:          make([]chromeEvent, 0, len(spans)+len(order)+1),
		DisplayTimeUnit: "ns",
	}
	tr.Events = append(tr.Events, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1,
		Args: map[string]any{"name": "nfcompass pipeline"},
	})
	for _, k := range order {
		tr.Events = append(tr.Events,
			chromeEvent{
				Name: "thread_name", Ph: "M", Pid: 1, Tid: keys[k],
				Args: map[string]any{"name": fmt.Sprintf("%s[%d]", k.stage, k.lane)},
			},
			chromeEvent{
				Name: "thread_sort_index", Ph: "M", Pid: 1, Tid: keys[k],
				Args: map[string]any{"sort_index": keys[k]},
			},
		)
	}
	for i := range spans {
		sp := &spans[i]
		dur := float64(sp.EndNs-sp.StartNs) / 1e3
		if dur <= 0 {
			dur = 0.001 // zero-width spans still render as a sliver
		}
		tr.Events = append(tr.Events, chromeEvent{
			Name: sp.Stage,
			Ph:   "X",
			Ts:   float64(sp.StartNs) / 1e3,
			Dur:  dur,
			Pid:  1,
			Tid:  keys[laneKey{sp.Stage, sp.Lane}],
			Args: map[string]any{"batch": sp.Batch, "packets": sp.Packets},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(tr)
}

// WriteSpans renders the newest n merged spans (0 or negative = all) as
// NDJSON, one span object per line, oldest first.
func (r *Recorder) WriteSpans(w io.Writer, n int) error {
	spans := r.Spans()
	if n > 0 && len(spans) > n {
		spans = spans[len(spans)-n:]
	}
	enc := json.NewEncoder(w)
	for i := range spans {
		if err := enc.Encode(&spans[i]); err != nil {
			return err
		}
	}
	return nil
}
