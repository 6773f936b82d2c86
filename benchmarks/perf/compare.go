package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"os/exec"
	"path/filepath"
)

// catalogMetric is one metric row of BENCHMARK.json.
type catalogMetric struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// catalog is the part of BENCHMARK.json the program reads: the bounds are
// kept there and nowhere else.
type catalog struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []catalogMetric `json:"end_to_end"`
	PerLayer []catalogMetric `json:"per_layer"`
}

func loadCatalog(path string) (*catalog, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("%w (run from the repo root, where BENCHMARK.json is)", err)
	}
	var c catalog
	if err := json.Unmarshal(b, &c); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &c, nil
}

// loadReports reads a -o file: one JSON report per line. Traced runs carry
// no end-to-end metrics and are skipped.
func loadReports(path string) ([]*report, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []*report
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<24)
	for sc.Scan() {
		if len(sc.Bytes()) == 0 {
			continue
		}
		var r report
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		if !r.Trace {
			out = append(out, &r)
		}
	}
	return out, sc.Err()
}

// series is one side's values of one workload × metric.
type series struct {
	xs         []float64
	q1, q2, q3 float64
}

func newSeries(reps []*report, workload, metric string) series {
	var s series
	for _, r := range reps {
		if v, ok := r.Metrics[metric]; ok && r.Workload == workload {
			s.xs = append(s.xs, v.Value)
		}
	}
	s.q1, s.q2, s.q3 = quartiles(s.xs)
	return s
}

// spread is the interquartile range as a share of the median — the driver's
// steadiness measure.
func (s series) spread() float64 {
	if s.q2 == 0 {
		return math.Inf(1)
	}
	return (s.q3 - s.q1) / math.Abs(s.q2)
}

// worseBy is how much worse b's median is than a's, as a share of a's
// (negative when b is better).
func worseBy(m catalogMetric, a, b series) float64 {
	if a.q2 == 0 {
		return math.Inf(1)
	}
	d := (b.q2 - a.q2) / math.Abs(a.q2)
	if m.Better == "higher" {
		d = -d
	}
	return d
}

func (s series) String() string {
	return fmt.Sprintf("%.5g [%.5g, %.5g] n=%d", s.q2, s.q1, s.q3, len(s.xs))
}

// runCompare prints one row per workload × end-to-end metric for two -o
// files and a verdict: ok, worse (b's median is worse than a's by more than
// the bound), or unresolved (a side's own spread exceeds the bound, so the
// runs cannot tell). It refuses to compare across differing environments.
func runCompare(pathA, pathB string) int {
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	a, err := loadReports(pathA)
	if err != nil {
		fatal(err)
	}
	b, err := loadReports(pathB)
	if err != nil {
		fatal(err)
	}
	if len(a) == 0 || len(b) == 0 {
		fatal(fmt.Errorf("no timed runs in %s or %s", pathA, pathB))
	}
	for _, r := range append(append([]*report(nil), a...), b...) {
		if !r.Env.comparable(a[0].Env) {
			fmt.Printf("refusing to compare: environment headers differ\n  %+v\n  %+v\n", a[0].Env, r.Env)
			return 2
		}
	}
	fmt.Printf("a: %s (commit %s)\nb: %s (commit %s)\n\n", pathA, a[0].Env.Commit, pathB, b[0].Env.Commit)
	fmt.Printf("%-15s %-20s %-5s %-38s %-38s %8s %6s  %s\n", "workload", "metric", "unit", "a: median [q1, q3]", "b: median [q1, q3]", "b worse", "bound", "verdict")
	worse := 0
	for _, w := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			sa, sb := newSeries(a, w.Name, m.Name), newSeries(b, w.Name, m.Name)
			if len(sa.xs) == 0 || len(sb.xs) == 0 {
				continue
			}
			d := worseBy(m, sa, sb)
			verdict := "ok"
			switch {
			case len(sa.xs) < 2 || len(sb.xs) < 2 || sa.spread() > m.Bound || sb.spread() > m.Bound:
				verdict = "unresolved"
			case d > m.Bound:
				verdict = "worse"
				worse++
			}
			fmt.Printf("%-15s %-20s %-5s %-38s %-38s %+7.1f%% %5.1f%%  %s\n", w.Name, m.Name, m.Unit, sa, sb, d*100, m.Bound*100, verdict)
		}
	}
	if worse > 0 {
		return 1
	}
	return 0
}

// runAA is the A/A self-check: two interleaved sets of n runs per workload
// of this same binary, seeds 1..n, judged the way the driver judges the
// benchmark — every end-to-end metric's spread over a set stays within its
// bound (set-up time excepted), and neither set's median is worse than the
// other's by more than the bound. It prints the table benchmarks/AA.md
// records and returns non-zero when a pair fails.
func runAA(n int, seconds float64, outDir string) int {
	cat, err := loadCatalog("BENCHMARK.json")
	if err != nil {
		fatal(err)
	}
	exe, err := os.Executable()
	if err != nil {
		fatal(err)
	}
	files := [2]string{filepath.Join(outDir, "aa-a.jsonl"), filepath.Join(outDir, "aa-b.jsonl")}
	for _, f := range files {
		if err := os.Remove(f); err != nil && !os.IsNotExist(err) {
			fatal(err)
		}
	}
	for seed := 1; seed <= n; seed++ {
		for _, w := range cat.Workloads {
			for k := 0; k < 2; k++ {
				set := (seed + k) % 2 // alternate which set runs first
				cmd := exec.Command(exe, "-workload", w.Name, "-seed", fmt.Sprint(seed),
					"-seconds", fmt.Sprint(seconds), "-o", files[set])
				cmd.Stderr = os.Stderr
				fmt.Fprintf(os.Stderr, "== aa: set %c seed %d %s\n", 'a'+set, seed, w.Name)
				if err := cmd.Run(); err != nil {
					fatal(fmt.Errorf("run failed (set %c, seed %d, %s): %w", 'a'+set, seed, w.Name, err))
				}
			}
		}
	}
	a, err := loadReports(files[0])
	if err != nil {
		fatal(err)
	}
	b, err := loadReports(files[1])
	if err != nil {
		fatal(err)
	}
	e := a[0].Env
	fmt.Printf("A/A self-check: 2 interleaved sets × %d seeds × %d workloads, %g s measured per run.\n\n", n, len(cat.Workloads), seconds)
	fmt.Printf("Environment: nproc=%d GOMAXPROCS=%d %s, %s, clocksource %s, commit %s.\n\n",
		e.NProc, e.GOMAXPROCS, e.GoVersion, e.CPUModel, e.Clocksource, e.Commit)
	fmt.Println("| workload | metric | set a: median [q1, q3] | set b: median [q1, q3] | spread a | spread b | medians differ | bound | verdict |")
	fmt.Println("|---|---|---|---|---|---|---|---|---|")
	bad := 0
	for _, w := range cat.Workloads {
		for _, m := range cat.EndToEnd {
			sa, sb := newSeries(a, w.Name, m.Name), newSeries(b, w.Name, m.Name)
			d := math.Max(worseBy(m, sa, sb), worseBy(m, sb, sa))
			verdict := "ok"
			if d > m.Bound || (m.Name != "setup_s" && (sa.spread() > m.Bound || sb.spread() > m.Bound)) {
				verdict = "FAIL"
				bad++
			}
			fmt.Printf("| %s | %s | %.5g [%.5g, %.5g] | %.5g [%.5g, %.5g] | %.2f%% | %.2f%% | %.2f%% | %.1f%% | %s |\n",
				w.Name, m.Name, sa.q2, sa.q1, sa.q3, sb.q2, sb.q1, sb.q3,
				sa.spread()*100, sb.spread()*100, d*100, m.Bound*100, verdict)
		}
	}
	fmt.Printf("\n%d failing pairs.\n", bad)
	if bad > 0 {
		return 1
	}
	return 0
}
