package main

import (
	"crypto/sha256"
	"encoding/hex"
	"regexp"
	"sort"
	"testing"
)

// TestSmoke runs every workload, timed and traced, with 200 ms phases. It
// asserts shape, never speed: outputs verify against the sequential
// executor, the branch workload really deploys a diamond (deploy fails
// otherwise), and the metric names are exactly BENCHMARK.json's.
func TestSmoke(t *testing.T) {
	cat, err := loadCatalog("../../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	names := func(ms []catalogMetric) []string {
		var out []string
		for _, m := range ms {
			out = append(out, m.Name)
		}
		sort.Strings(out)
		return out
	}
	wantE2E, wantLayer := names(cat.EndToEnd), names(cat.PerLayer)
	if got := len(cat.Workloads); got != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", got, len(workloads))
	}
	valid := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	units := map[string]string{}
	for _, m := range append(append([]catalogMetric(nil), cat.EndToEnd...), cat.PerLayer...) {
		units[m.Name] = m.Unit
	}
	for i, w := range workloads {
		if cat.Workloads[i].Name != w.name {
			t.Errorf("workload %d: BENCHMARK.json has %q, the program %q", i, cat.Workloads[i].Name, w.name)
		}
		for _, traced := range []bool{false, true} {
			rep, err := runOne(w, 1, 0.4, traced, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", w.name, traced, err)
			}
			if !rep.Correct {
				t.Errorf("%s traced=%v: failed=%d of %d: %v", w.name, traced, rep.Failed, rep.Attempted, rep.Notes)
			}
			want := wantE2E
			if traced {
				want = wantLayer
			}
			got := sortedKeys(rep.Metrics)
			if len(got) != len(want) {
				t.Errorf("%s traced=%v: %d metrics, catalog has %d\n got %v\nwant %v", w.name, traced, len(got), len(want), got, want)
				continue
			}
			for j, name := range got {
				if name != want[j] {
					t.Errorf("%s traced=%v: metric %q, catalog has %q", w.name, traced, name, want[j])
				}
				if !valid.MatchString(name) {
					t.Errorf("%s: metric name %q is not a valid name", w.name, name)
				}
				if u := rep.Metrics[name].Unit; u != units[name] {
					t.Errorf("%s: %s has unit %q, catalog says %q", w.name, name, u, units[name])
				}
			}
		}
	}
}

// TestTemplateIsAFunctionOfTheSeed hashes the generator's first 10 000
// frames: equal for equal seeds, different for another seed.
func TestTemplateIsAFunctionOfTheSeed(t *testing.T) {
	for _, w := range workloads {
		a, b, c := makeTemplate(w, 1).hash(10000), makeTemplate(w, 1).hash(10000), makeTemplate(w, 2).hash(10000)
		if a != b {
			t.Errorf("%s: seed 1 generated two different templates", w.name)
		}
		if a == c {
			t.Errorf("%s: seeds 1 and 2 generated the same template", w.name)
		}
	}
}

func TestHistogramQuantile(t *testing.T) {
	var h logHist
	for v := int64(1); v <= 100000; v++ {
		h.add(v)
	}
	for _, q := range []float64{0.5, 0.99} {
		got, want := h.quantile(q), q*100000
		if got < want*0.98 || got > want*1.02 {
			t.Errorf("quantile(%g) = %g, want %g within 2%%", q, got, want)
		}
	}
}

// hash fingerprints the first n frames and flow ids (the smoke test's
// same-seed/different-seed check).
func (t *template) hash(n int) string {
	h := sha256.New()
	var id [8]byte
	for i := 0; i < n && i < len(t.frames); i++ {
		h.Write(t.frames[i])
		for k := range id {
			id[k] = byte(t.flows[i] >> (8 * k))
		}
		h.Write(id[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}
