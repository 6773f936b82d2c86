package bench

import (
	"flag"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

func quickCfg() Config {
	c := DefaultConfig()
	c.Quick = true
	return c
}

// parseF extracts the leading number of a table cell; cells may be
// "12.34", "12.34/56.7", or "12.34 (56.7)".
func parseF(t *testing.T, s string) float64 {
	t.Helper()
	tok := strings.Fields(strings.Split(s, "/")[0])
	if len(tok) == 0 {
		t.Fatalf("empty cell %q", s)
	}
	v, err := strconv.ParseFloat(tok[0], 64)
	if err != nil {
		t.Fatalf("parse %q: %v", s, err)
	}
	return v
}

func TestRegistryRunsEverything(t *testing.T) {
	if testing.Short() {
		t.Skip("full registry sweep is long")
	}
	for _, id := range IDs() {
		tbl, err := Run(id, quickCfg())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		if len(tbl.Rows) == 0 {
			t.Errorf("%s: empty table", id)
		}
		if out := tbl.Format(); !strings.Contains(out, tbl.ID) {
			t.Errorf("%s: Format missing id", id)
		}
	}
}

func TestRunUnknown(t *testing.T) {
	if _, err := Run("nope", quickCfg()); err == nil {
		t.Error("unknown experiment accepted")
	}
}

func TestFig5SplitHurts(t *testing.T) {
	tbl, err := Fig5(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	without := parseF(t, tbl.Rows[0][1])
	with := parseF(t, tbl.Rows[1][1])
	if with >= without {
		t.Errorf("with_split (%.2f) should undercut without_split (%.2f)", with, without)
	}
	if ratio := without / with; ratio < 1.3 {
		t.Errorf("split penalty ratio %.2f too small (paper ~2.3x)", ratio)
	}
}

func TestFig6Shapes(t *testing.T) {
	tbl, err := Fig6(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	if len(tbl.Rows) != 11 {
		t.Fatalf("rows = %d", len(tbl.Rows))
	}
	// Column 1: IPv4 best at 0% — value at 0% >= value at 100%.
	v4at0 := parseF(t, tbl.Rows[0][1])
	v4at100 := parseF(t, tbl.Rows[10][1])
	if v4at100 > v4at0 {
		t.Errorf("IPv4: 100%% offload (%.2f) beat CPU-only (%.2f)", v4at100, v4at0)
	}
	// Column 2: IPsec has an interior optimum.
	best, bestIdx := 0.0, 0
	for i := 0; i <= 10; i++ {
		if v := parseF(t, tbl.Rows[i][2]); v > best {
			best, bestIdx = v, i
		}
	}
	if bestIdx == 0 || bestIdx == 10 {
		t.Errorf("IPsec optimum at boundary (%d0%%)", bestIdx)
	}
	if bestIdx < 5 || bestIdx > 9 {
		t.Errorf("IPsec optimum at %d0%%, paper says ~70%%", bestIdx)
	}
}

func TestFig7GPUBenefitErodes(t *testing.T) {
	tbl, err := Fig7(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// GPU/CPU ratio for case A (single IPsec) must exceed case D (3-NF).
	ratioA := parseF(t, tbl.Rows[0][2]) / parseF(t, tbl.Rows[0][1])
	ratioD := parseF(t, tbl.Rows[3][2]) / parseF(t, tbl.Rows[3][1])
	if ratioD >= ratioA {
		t.Errorf("GPU benefit should erode with length: A=%.2f D=%.2f", ratioA, ratioD)
	}
}

func TestFig8BatchSizeShapes(t *testing.T) {
	tbl, err := Fig8BatchSize(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	last := len(tbl.Rows) - 1
	// DPI CPU at batch 1024 (col 5) below its batch-64 value: the knee.
	dpiCPUat64 := parseF(t, tbl.Rows[1][5])
	dpiCPUat1024 := parseF(t, tbl.Rows[last][5])
	if dpiCPUat1024 >= dpiCPUat64 {
		t.Errorf("DPI CPU should degrade past the knee: %.2f -> %.2f",
			dpiCPUat64, dpiCPUat1024)
	}
	// IPsec GPU improves with batch size (col 4).
	secGPUat32 := parseF(t, tbl.Rows[0][4])
	secGPUat1024 := parseF(t, tbl.Rows[last][4])
	if secGPUat1024 <= secGPUat32 {
		t.Errorf("IPsec GPU should amortize: %.2f -> %.2f", secGPUat32, secGPUat1024)
	}
}

func TestFig8TrafficGap(t *testing.T) {
	tbl, err := Fig8Traffic(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	noMatchCPU := parseF(t, tbl.Rows[0][1])
	fullMatchCPU := parseF(t, tbl.Rows[1][1])
	ratio := noMatchCPU / fullMatchCPU
	if ratio < 2 || ratio > 12 {
		t.Errorf("no-match/full-match CPU ratio %.1fx outside plausible band (paper 4-5x)", ratio)
	}
}

func TestFig8CoRunOrdering(t *testing.T) {
	tbl, err := Fig8CoRun(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	avgOf := func(name string) float64 {
		for _, r := range tbl.Rows {
			if r[0] == name {
				return parseF(t, r[len(r)-1])
			}
		}
		t.Fatalf("row %s missing", name)
		return 0
	}
	ids := avgOf("IDS")
	fw := avgOf("FW")
	if ids <= fw {
		t.Errorf("IDS avg drop (%.1f%%) should exceed FW (%.1f%%)", ids, fw)
	}
}

func TestFig14ReorgShapes(t *testing.T) {
	tbl, err := Fig14(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Each row: NF, platform, a, b, c, d as "gbps/latency".
	lat := func(cell string) float64 {
		parts := strings.Split(cell, "/")
		v, err := strconv.ParseFloat(parts[1], 64)
		if err != nil {
			t.Fatalf("parse %q: %v", cell, err)
		}
		return v
	}
	gbps := func(cell string) float64 { return parseF(t, cell) }

	for _, r := range tbl.Rows {
		name := r[0] + "/" + r[1]
		aLat, bLat, cLat, dLat := lat(r[2]), lat(r[3]), lat(r[4]), lat(r[5])
		if bLat >= aLat {
			t.Errorf("%s: parallelization did not cut latency (a=%.1f b=%.1f)",
				name, aLat, bLat)
		}
		if r[0] == "IPsec" {
			// Replicated IPsec cannot de-duplicate (each stage re-encrypts),
			// so configuration d behaves like c, not like the paper's
			// merged-NF d; see EXPERIMENTS.md.
			if dLat > cLat*1.05 {
				t.Errorf("%s: d latency (%.1f) should not exceed c (%.1f)",
					name, dLat, cLat)
			}
			continue
		}
		if dLat >= bLat {
			t.Errorf("%s: synthesis (d=%.1f) should beat duplication (b=%.1f)",
				name, dLat, bLat)
		}
		if dG, bG := gbps(r[5]), gbps(r[3]); dG <= bG {
			t.Errorf("%s: d throughput (%.2f) should exceed b (%.2f)", name, dG, bG)
		}
	}
}

func TestFig15GTACompetitive(t *testing.T) {
	tbl, err := Fig15(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range tbl.Rows {
		ratio := parseF(t, r[5])
		if ratio < 0.85 {
			t.Errorf("%s: GTA/Optimal = %.2f, want >= 0.85", r[0], ratio)
		}
	}
	// IPv4: GTA should match CPU-only (no offload).
	v4 := tbl.Rows[0]
	cpu, gta := parseF(t, v4[1]), parseF(t, v4[3])
	if gta < cpu*0.9 {
		t.Errorf("IPv4 GTA (%.2f) fell below CPU-only (%.2f)", gta, cpu)
	}
}

func TestFig17NFCompassHoldsFlat(t *testing.T) {
	tbl, err := Fig17(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	// Compare 64B rows across ACL sizes (rows 0, 3, 6).
	fcSmall, fcBig := parseF(t, tbl.Rows[0][2]), parseF(t, tbl.Rows[6][2])
	ncSmall, ncBig := parseF(t, tbl.Rows[0][4]), parseF(t, tbl.Rows[6][4])
	fcDrop := 1 - fcBig/fcSmall
	ncDrop := 1 - ncBig/ncSmall
	t.Logf("FastClick drop %.0f%%, NFCompass drop %.0f%%", fcDrop*100, ncDrop*100)
	if ncDrop >= fcDrop {
		t.Errorf("NFCompass (%.0f%%) should degrade less than FastClick (%.0f%%)",
			ncDrop*100, fcDrop*100)
	}
	// NFCompass latency no worse than FastClick at the largest ACL.
	latOf := func(cell string) float64 {
		parts := strings.Split(cell, "/")
		v, _ := strconv.ParseFloat(parts[1], 64)
		return v
	}
	if nc, fc := latOf(tbl.Rows[6][4]), latOf(tbl.Rows[6][2]); nc > fc {
		t.Errorf("NFCompass latency (%.1f) above FastClick (%.1f) at big ACL", nc, fc)
	}
}

func TestAblationFullBest(t *testing.T) {
	tbl, err := Ablation(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	base := parseF(t, tbl.Rows[0][1])
	full := parseF(t, tbl.Rows[len(tbl.Rows)-1][1])
	if full < base {
		t.Errorf("full NFCompass (%.2f) below plain chain (%.2f)", full, base)
	}
}

func TestTableFormat(t *testing.T) {
	tbl := &Table{ID: "x", Title: "t", Headers: []string{"a", "bb"}}
	tbl.AddRow("1", "2")
	tbl.Notes = append(tbl.Notes, "n")
	out := tbl.Format()
	for _, want := range []string{"x", "a", "bb", "1", "2", "note: n"} {
		if !strings.Contains(out, want) {
			t.Errorf("Format missing %q:\n%s", want, out)
		}
	}
}

func TestTableCSV(t *testing.T) {
	tbl := &Table{ID: "x", Headers: []string{"a", "b,c"}}
	tbl.AddRow("1", `say "hi"`)
	csv := tbl.CSV()
	want := "a,\"b,c\"\n1,\"say \"\"hi\"\"\"\n"
	if csv != want {
		t.Errorf("CSV = %q, want %q", csv, want)
	}
}

func TestScalingAdvantageWidens(t *testing.T) {
	tbl, err := Scaling(quickCfg())
	if err != nil {
		t.Fatal(err)
	}
	first := parseF(t, strings.TrimSuffix(tbl.Rows[0][3], "x"))
	last := parseF(t, strings.TrimSuffix(tbl.Rows[len(tbl.Rows)-1][3], "x"))
	if last < first {
		t.Errorf("speedup shrank with chain length: %.2f -> %.2f", first, last)
	}
	if last < 1.0 {
		t.Errorf("NFCompass slower than baseline on the longest chain: %.2fx", last)
	}
}

var updateGolden = flag.Bool("update", false, "rewrite testdata/model_outputs.golden from this run")

// allocTime is the one wall-clock field inside a model-output table: algos
// prints "<alloc ms>/<objective>/<Gbps>" per cell.
var allocTime = regexp.MustCompile(`^\d+ms/`)

// What ROADMAP.md calls model outputs — the paper tables that come out of
// core.Deploy — are a pure function of (chain, sample, seed): a change that
// removes, reorders or shares evaluation passes must reproduce them to the
// last printed digit. `go test ./internal/bench -run TestModelOutputsGolden
// -update` rewrites the file when a change moves them on purpose.
func TestModelOutputsGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs four experiments at full scale")
	}
	var got strings.Builder
	for _, id := range []string{"algos", "ablation", "fig14", "fig15"} {
		tbl, err := Run(id, DefaultConfig())
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		for _, row := range tbl.Rows {
			for i, c := range row {
				row[i] = allocTime.ReplaceAllString(c, "")
			}
		}
		got.WriteString(tbl.Format())
		got.WriteByte('\n')
	}
	const path = "testdata/model_outputs.golden"
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Errorf("model outputs moved (rerun with -update only if the change means to move them):\n--- got\n%s--- want\n%s", got.String(), want)
	}
}
