// Package bench contains one experiment driver per table/figure of the
// paper's evaluation (see DESIGN.md §4 for the index). Every driver builds
// its workload and systems from the public packages — nothing here
// hard-codes a result — and returns a Table whose rows mirror what the
// paper plots. cmd/nfbench runs them from the command line; the root-level
// benchmarks wrap them in testing.B.
package bench

import (
	"fmt"
	"strings"

	"nfcompass/internal/acl"
	"nfcompass/internal/element"
	"nfcompass/internal/hetsim"
	"nfcompass/internal/netpkt"
	"nfcompass/internal/nf"
	"nfcompass/internal/traffic"
	"nfcompass/internal/trie"
)

// Config scales the experiments.
type Config struct {
	// Batches and BatchSize size each measurement run.
	Batches   int
	BatchSize int
	// Seed drives all traffic generation.
	Seed int64
	// Quick shrinks workloads for unit-test use.
	Quick bool
}

// DefaultConfig returns the full-scale experiment configuration.
func DefaultConfig() Config {
	return Config{
		Batches:   120,
		BatchSize: 64,
		Seed:      1,
	}
}

func (c *Config) defaults() {
	if c.Batches == 0 {
		c.Batches = 120
	}
	if c.BatchSize == 0 {
		c.BatchSize = 64
	}
	if c.Quick && c.Batches > 24 {
		c.Batches = 24
	}
}

// Table is a rendered experiment result.
type Table struct {
	ID      string // experiment id (e.g. "fig6")
	Title   string
	Headers []string
	Rows    [][]string
	Notes   []string
}

// AddRow appends a formatted row.
func (t *Table) AddRow(cells ...string) { t.Rows = append(t.Rows, cells) }

// Format renders the table as aligned text.
func (t *Table) Format() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "== %s: %s ==\n", t.ID, t.Title)
	widths := make([]int, len(t.Headers))
	for i, h := range t.Headers {
		widths[i] = len(h)
	}
	for _, r := range t.Rows {
		for i, c := range r {
			if i < len(widths) && len(c) > widths[i] {
				widths[i] = len(c)
			}
		}
	}
	line := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteString("  ")
			}
			fmt.Fprintf(&sb, "%-*s", widths[i], c)
		}
		sb.WriteByte('\n')
	}
	line(t.Headers)
	for _, r := range t.Rows {
		line(r)
	}
	for _, n := range t.Notes {
		fmt.Fprintf(&sb, "note: %s\n", n)
	}
	return sb.String()
}

// f2 formats a float with 2 decimals.
func f2(x float64) string { return fmt.Sprintf("%.2f", x) }

// f1 formats a float with 1 decimal.
func f1(x float64) string { return fmt.Sprintf("%.1f", x) }

// --- Shared workload builders -------------------------------------------

// defaultRouteTable is a small realistic table with a default route.
func defaultRouteTable(seed int64) *trie.Dir24_8 {
	var tr trie.IPv4Trie
	_ = tr.Insert(0, 0, 1)
	_ = tr.Insert(0xc0a80000, 16, 2)
	_ = tr.Insert(0x0a000000, 8, 3)
	return trie.BuildDir24_8(&tr)
}

func defaultV6Table() *trie.V6HashLPM {
	var tr trie.IPv6Trie
	_ = tr.Insert(netpkt.IPv6Addr{}, 0, 1)
	_ = tr.Insert(netpkt.IPv6Addr{Hi: 0x2001_0db8_0000_0000}, 32, 2)
	return trie.BuildV6HashLPM(&tr)
}

// idsPatterns is the benchmark pattern set for IDS/DPI experiments: a
// deterministic Snort-scale signature corpus (~1500 content strings) so
// the AC automaton's DFA table has a realistic multi-megabyte footprint.
var idsPatterns = genPatterns(1500)

func genPatterns(n int) []string {
	stems := []string{"attack", "malware", "exploit", "overflow", "shellcode",
		"select union", "cmd.exe", "/etc/passwd", "eval(", "base64_decode",
		"wget http", "powershell -e", "DROP TABLE", "../../", "xp_cmdshell"}
	out := make([]string, 0, n)
	out = append(out, stems...)
	// Deterministic LCG-derived suffixes keep generation stdlib-cheap.
	seed := uint64(0x9e3779b97f4a7c15)
	for len(out) < n {
		seed = seed*6364136223846793005 + 1442695040888963407
		stem := stems[seed>>33%uint64(len(stems))]
		suffix := make([]byte, 4+seed%6)
		s := seed
		for i := range suffix {
			s = s*2862933555777941757 + 3037000493
			suffix[i] = byte('a' + s>>56%26)
		}
		out = append(out, stem+"/"+string(suffix))
	}
	return out
}

// mkIPv4 builds the IPv4 forwarder NF.
func mkIPv4(name string, seed int64) *nf.NF {
	return nf.NewIPv4Router(name, defaultRouteTable(seed), "bench")
}

// mkIPv6 builds the IPv6 forwarder NF.
func mkIPv6(name string) *nf.NF {
	return nf.NewIPv6Router(name, defaultV6Table(), "bench6")
}

// mkIPsec builds the ESP gateway NF.
func mkIPsec(name string) *nf.NF {
	return nf.NewIPsecGateway(name, 0x1000, []byte("0123456789abcdef"), []byte("bench-auth"))
}

// mkIDS builds the IDS NF (alert-only, like the characterization setup).
func mkIDS(name string) *nf.NF {
	return nf.NewIDS(name, idsPatterns, false)
}

// mkDPI builds the two-stage DPI NF.
func mkDPI(name string) *nf.NF {
	return nf.NewDPI(name, idsPatterns, []string{`[0-9]+\.exe`, `(select|union)[a-z ]*from`})
}

// mkFirewall builds a never-drop firewall over a synthetic ACL.
func mkFirewall(name string, rules int) *nf.NF {
	return nf.NewFirewall(name, acl.Generate(rules, 7), true)
}

// mkNAT builds the source-NAT NF.
func mkNAT(name string) *nf.NF {
	return nf.NewNAT(name, 0x01020304)
}

// gpuOnly offloads every heavy element of g wholly to the GPU ("GPU-only"
// in the experiments leaves glue elements on the CPU, as the GPU
// frameworks the paper compares against do).
func gpuOnly(g *element.Graph) hetsim.Assignment {
	return hetsim.GPUHeavy(g)
}

// batchesFor generates the measurement traffic for a config.
func batchesFor(cfg Config, size traffic.SizeDist, payload traffic.PayloadProfile, seedOff int64) []*netpkt.Batch {
	gen := traffic.NewGenerator(traffic.Config{
		Size:        size,
		Payload:     payload,
		MatchTokens: idsPatterns,
		Seed:        cfg.Seed + seedOff,
		Flows:       256,
	})
	return gen.Batches(cfg.Batches, cfg.BatchSize)
}

// CSV renders the table as RFC-4180-ish CSV (quotes applied when needed),
// for spreadsheet/plotting pipelines.
func (t *Table) CSV() string {
	var sb strings.Builder
	writeRow := func(cells []string) {
		for i, c := range cells {
			if i > 0 {
				sb.WriteByte(',')
			}
			if strings.ContainsAny(c, ",\"\n") {
				sb.WriteByte('"')
				sb.WriteString(strings.ReplaceAll(c, "\"", "\"\""))
				sb.WriteByte('"')
			} else {
				sb.WriteString(c)
			}
		}
		sb.WriteByte('\n')
	}
	writeRow(t.Headers)
	for _, r := range t.Rows {
		writeRow(r)
	}
	return sb.String()
}
