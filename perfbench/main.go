// Command perfbench is the repository's benchmark. It runs one workload
// against the root sti API and prints the end-to-end metrics, or, with
// -trace 1, replays the workloads' data through the internal layers and
// prints the per-layer metrics together with a Chrome trace.
//
//	perfbench --workload suite|resident|durable --seed N --seconds S --trace 0|1
//	perfbench compare BEFORE AFTER
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics. The line before it records the
// provenance of the run. README.md describes every workload and metric.
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
	"time"
)

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's final output line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// tally counts checked operations and keeps the first failures for the
// error report on standard error.
type tally struct {
	attempted, failed int
	errs              []string
}

// check records one attempted operation that failed when err is non-nil.
func (t *tally) check(err error) {
	t.attempted++
	if err != nil {
		t.failed++
		if len(t.errs) < 10 {
			t.errs = append(t.errs, err.Error())
		}
	}
}

// config is what a workload run receives from the command line.
type config struct {
	seed    int64
	seconds time.Duration
	out     string // directory for traces and temporary data
	tmp     string // directory for data directories
}

var workloads = map[string]func(config, *tally) (map[string]metric, error){
	"suite":    runSuite,
	"resident": runResident,
	"durable":  runDurable,
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		if len(os.Args) != 4 {
			fatalf("usage: perfbench compare BEFORE AFTER")
		}
		if err := compare(os.Stdout, os.Args[2], os.Args[3]); err != nil {
			fatalf("compare: %v", err)
		}
		return
	}
	name := flag.String("workload", "", "suite, resident or durable")
	seed := flag.Int64("seed", 1, "workload seed")
	seconds := flag.Int("seconds", 10, "measured seconds")
	trace := flag.Int("trace", 0, "1 prints the per-layer metrics of a traced run")
	flag.Parse()
	run, ok := workloads[*name]
	if !ok || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	out := os.Getenv("PERFBENCH_OUT")
	if out == "" {
		out = ".bench_build"
	}
	cfg := config{seed: *seed, seconds: time.Duration(*seconds) * time.Second, out: out, tmp: filepath.Join(out, "tmp")}
	if err := os.MkdirAll(cfg.tmp, 0o755); err != nil {
		fatalf("%v", err)
	}

	prov := provenance(*name, *seed, *trace == 1)
	steal0, total0, statOK := cpuStat()
	var t tally
	var metrics map[string]metric
	var err error
	if *trace == 1 {
		metrics, err = runTraced(cfg, *name, &t, prov)
	} else {
		metrics, err = run(cfg, &t)
	}
	if err != nil {
		fatalf("%s: %v", *name, err)
	}
	if steal1, total1, ok := cpuStat(); ok && statOK {
		prov["host_steal_share"] = stealShare(steal0, total0, steal1, total1)
	}
	for _, e := range t.errs {
		fmt.Fprintln(os.Stderr, "check failed:", e)
	}
	if t.attempted == 0 {
		fatalf("%s: no operation attempted", *name)
	}
	printJSON(map[string]any{"provenance": prov})
	printJSON(result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: metrics})
}

func printJSON(v any) {
	b, err := json.Marshal(v)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println(string(b))
}

func fatalf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
	os.Exit(1)
}

// --- statistics ---

// percentile returns the nearest-rank p-th percentile (0 < p <= 100).
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(p/100*float64(len(s)))) - 1
	if i < 0 {
		i = 0
	}
	return s[i]
}

func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// timeSetup times one set-up in seconds. It collects garbage first so
// every repetition starts from the same heap state.
func timeSetup(setup func() error) (float64, error) {
	runtime.GC()
	t0 := time.Now()
	err := setup()
	return seconds(time.Since(t0)), err
}

func seconds(d time.Duration) float64 { return d.Seconds() }
func micros(d time.Duration) float64  { return float64(d.Nanoseconds()) / 1e3 }
