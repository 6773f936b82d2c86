// Command perf is the repo benchmark. One invocation runs one workload:
//
//	go run ./perf -workload fwd64 -seed 1            # timed run: end-to-end metrics
//	go run ./perf -workload fwd64 -seed 1 -trace 1   # traced run: per-layer metrics
//	go run ./perf -compare a.jsonl b.jsonl           # verdict per workload × metric
//	go run ./perf -aa 10                             # A/A self-check of the bounds
//
// It builds the chain with the repo's constructors, runs core.Deploy, checks
// the live plane's outputs against the sequential executor, then drives
// ingress.Pump → dataplane.NewSharded from its own Source and Sink. Every
// layer is timed from outside through public functions; the program under
// test gains no flag, env var or hook. See ../README.md.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
)

// value is one reported number; N is the sample count behind a median.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n,omitempty"`
}

// timing is a metric made of repeated samples inside one run.
type timing struct {
	value float64
	n     int
}

// report is one run's full output (one line of a -o file).
type report struct {
	Env       envHeader         `json:"env"`
	Workload  string            `json:"workload"`
	Seed      int64             `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted uint64            `json:"attempted"`
	Failed    uint64            `json:"failed"`
	Notes     []string          `json:"notes,omitempty"`
	Metrics   map[string]value  `json:"metrics"`
	Info      map[string]string `json:"info,omitempty"`
}

// set records a metric. A ratio over a phase too short to hold a window (a
// smoke test on a loaded machine) is 0, never NaN or Inf: those do not
// survive JSON.
func (rep *report) set(name, unit string, t timing) {
	if math.IsNaN(t.value) || math.IsInf(t.value, 0) {
		t.value = 0
	}
	rep.Metrics[name] = value{t.value, unit, t.n}
}

func (rep *report) setv(name, unit string, v float64) { rep.set(name, unit, timing{value: v}) }

// sortedKeys lists a map's keys in order, for stable printing.
func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

func main() {
	workloadName := flag.String("workload", "", "workload to run: fwd64, telco_churn, hetero_offload, branch_par")
	seed := flag.Int64("seed", 1, "traffic seed: the same seed gives the same inputs")
	seconds := flag.Float64("seconds", 24, "measured time of one run, split over its phases")
	trace := flag.Int("trace", 0, "1 = the traced run: per-layer metrics and a span file; 0 = the timed run")
	outDir := flag.String("out", "benchmarks/out", "directory for span files and -aa run logs")
	appendTo := flag.String("o", "", "append the full report (JSON, one line) to this file")
	compare := flag.Bool("compare", false, "compare two -o files given as arguments: per-workload rows and a verdict")
	aa := flag.Int("aa", 0, "A/A self-check: two interleaved sets of this many runs per workload, judged by the driver's rule")
	flag.Parse()

	switch {
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs two files"))
		}
		os.Exit(runCompare(flag.Arg(0), flag.Arg(1)))
	case *aa > 0:
		os.Exit(runAA(*aa, *seconds, *outDir))
	}

	// Every measured phase runs on one P: see README "Why one P".
	runtime.GOMAXPROCS(1)
	w := findWorkload(*workloadName)
	if w == nil {
		fatal(fmt.Errorf("unknown workload %q", *workloadName))
	}
	rep, err := runOne(w, *seed, *seconds, *trace != 0, *outDir)
	if err != nil {
		fatal(err)
	}
	if *appendTo != "" {
		if err := appendReport(*appendTo, rep); err != nil {
			fatal(err)
		}
	}
	printTable(rep)
	// The driver reads the last line of standard output.
	type wire struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	last := struct {
		Correct   bool            `json:"correct"`
		Attempted uint64          `json:"attempted"`
		Failed    uint64          `json:"failed"`
		Metrics   map[string]wire `json:"metrics"`
	}{rep.Correct, rep.Attempted, rep.Failed, make(map[string]wire, len(rep.Metrics))}
	for k, v := range rep.Metrics {
		last.Metrics[k] = wire{v.Value, v.Unit}
	}
	line, err := json.Marshal(last)
	if err != nil {
		fatal(err)
	}
	fmt.Println(string(line))
	if !rep.Correct {
		os.Exit(1)
	}
}

// runOne executes one workload run and assembles its report.
func runOne(w *workload, seed int64, seconds float64, traced bool, outDir string) (*report, error) {
	r := newRunner(w, seed, seconds)
	rep := &report{Env: readEnv(seconds), Workload: w.name, Seed: seed, Trace: traced,
		Metrics: make(map[string]value), Info: make(map[string]string)}
	if traced {
		r.trace = newTracer(fmt.Sprintf("%s-%d", w.name, seed))
		if err := r.runLayers(rep); err != nil {
			return nil, err
		}
		path := filepath.Join(outDir, w.name+".trace.json")
		if err := r.trace.write(path); err != nil {
			return nil, err
		}
		rep.Info["trace_file"] = path
	} else {
		if err := r.runE2E(rep); err != nil {
			return nil, err
		}
	}
	rep.Attempted, rep.Failed, rep.Notes = r.attempted, r.failed, r.notes
	rep.Correct = r.failed == 0 && r.attempted > 0
	return rep, nil
}

func appendReport(path string, rep *report) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	line, err := json.Marshal(rep)
	if err != nil {
		f.Close()
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// printTable writes the human-readable report to standard error, keeping
// standard output for the result line.
func printTable(rep *report) {
	e := rep.Env
	fmt.Fprintf(os.Stderr, "# %s seed=%d trace=%v seconds=%g | nproc=%d GOMAXPROCS=%d %s commit=%s cpu=%q clock=%s shards=%d batch=%d\n",
		rep.Workload, rep.Seed, rep.Trace, e.Seconds, e.NProc, e.GOMAXPROCS, e.GoVersion, e.Commit, e.CPUModel, e.Clocksource, e.Shards, e.BatchSize)
	for _, k := range sortedKeys(rep.Metrics) {
		v := rep.Metrics[k]
		fmt.Fprintf(os.Stderr, "%-44s %16.6g %-6s n=%d\n", k, v.Value, v.Unit, v.N)
	}
	for _, k := range sortedKeys(rep.Info) {
		fmt.Fprintf(os.Stderr, "%-44s %s\n", k, rep.Info[k])
	}
	fmt.Fprintf(os.Stderr, "attempted=%d failed=%d failed_share=%g correct=%v\n",
		rep.Attempted, rep.Failed, float64(rep.Failed)/float64(max(rep.Attempted, 1)), rep.Correct)
	for _, n := range rep.Notes {
		fmt.Fprintln(os.Stderr, "note:", n)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "perf:", err)
	os.Exit(2)
}
