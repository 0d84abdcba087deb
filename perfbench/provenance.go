package main

import (
	"bufio"
	"os"
	"os/exec"
	"runtime"
	"strconv"
	"strings"
)

// provenance ties a result to the revision, seed and host that produced
// it. The revision is "unknown" outside a git checkout.
func provenance(workload string, seed int64, traced bool) map[string]any {
	rev, dirty := gitRevision()
	p := map[string]any{
		"workload":   workload,
		"seed":       seed,
		"traced":     traced,
		"revision":   rev,
		"dirty":      dirty,
		"nproc":      runtime.NumCPU(),
		"gomaxprocs": runtime.GOMAXPROCS(0),
		"cpu":        cpuModel(),
		"go":         runtime.Version(),
		"durable_policy": map[string]any{
			"fsync": false, "snapshot_every": 256, "flush_keys": flushKeys, "max_segments": 4,
		},
	}
	return p
}

func gitRevision() (string, bool) {
	out, err := exec.Command("git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	status, err := exec.Command("git", "--no-optional-locks", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err != nil || len(status) > 0
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// cpuStat reads the host's cumulative steal and total CPU time (in clock
// ticks) from /proc/stat; ok is false where it is unavailable.
func cpuStat() (steal, total uint64, ok bool) {
	b, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, false
	}
	line, _, _ := strings.Cut(string(b), "\n")
	fields := strings.Fields(line)
	if len(fields) < 9 || fields[0] != "cpu" {
		return 0, 0, false
	}
	for i, f := range fields[1:] {
		n, err := strconv.ParseUint(f, 10, 64)
		if err != nil {
			return 0, 0, false
		}
		if i < 8 { // user nice system idle iowait irq softirq steal; guest time is inside user
			total += n
		}
		if i == 7 {
			steal = n
		}
	}
	return steal, total, true
}

// stealShare is the share of CPU time the hypervisor took from this
// machine between two cpuStat readings. Time metrics of runs with a high
// share read slow.
func stealShare(steal0, total0, steal1, total1 uint64) float64 {
	if total1 <= total0 {
		return 0
	}
	return float64(steal1-steal0) / float64(total1-total0)
}
