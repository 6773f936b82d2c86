package main

import (
	"os"
	"runtime"
	"strings"
)

// envHeader stamps every output with the machine and run shape. -compare
// refuses to compare runs whose headers differ in anything but the commit.
type envHeader struct {
	NProc       int     `json:"nproc"`
	GOMAXPROCS  int     `json:"gomaxprocs"`
	GoVersion   string  `json:"go_version"`
	Commit      string  `json:"commit"`
	CPUModel    string  `json:"cpu_model"`
	Clocksource string  `json:"clocksource"`
	Seconds     float64 `json:"seconds"`
	Shards      int     `json:"shards"`
	BatchSize   int     `json:"batch_size"`
}

func readEnv(seconds float64) envHeader {
	h := envHeader{
		NProc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion: runtime.Version(), Commit: "unknown", CPUModel: "unknown",
		Clocksource: "unknown", Seconds: seconds, Shards: 1, BatchSize: batchSize,
	}
	if c := readCommit(".git"); c != "" {
		h.Commit = c
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				h.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if b, err := os.ReadFile("/sys/devices/system/clocksource/clocksource0/current_clocksource"); err == nil {
		h.Clocksource = strings.TrimSpace(string(b))
	}
	return h
}

// comparable reports whether two headers describe the same environment and
// run shape (everything but the commit).
func (h envHeader) comparable(o envHeader) bool {
	h.Commit, o.Commit = "", ""
	return h == o
}

// readCommit resolves HEAD of the git directory the benchmark was started
// in, without running git. The driver's checkout is not a git repository:
// the commit is a label on the output, never a condition.
func readCommit(gitDir string) string {
	head, err := os.ReadFile(gitDir + "/HEAD")
	if err != nil {
		return ""
	}
	ref, isRef := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !isRef {
		return ref // detached HEAD: the hash itself
	}
	if b, err := os.ReadFile(gitDir + "/" + ref); err == nil {
		return strings.TrimSpace(string(b))
	}
	packed, _ := os.ReadFile(gitDir + "/packed-refs")
	for _, line := range strings.Split(string(packed), "\n") {
		if hash, name, ok := strings.Cut(line, " "); ok && name == ref {
			return hash
		}
	}
	return ""
}
