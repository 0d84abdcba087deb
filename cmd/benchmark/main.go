// Command benchmark regenerates the paper's tables and figures (see
// DESIGN.md §5 for the experiment index and EXPERIMENTS.md for recorded
// paper-vs-measured results).
//
//	benchmark -fig 15          STI & legacy slowdown vs compiled (Fig 15)
//	benchmark -fig 16          per-rule slowdown case study (Fig 16)
//	benchmark -fig 18          static instruction generation ablation
//	benchmark -fig 19          super-instruction ablation
//	benchmark -fig reorder     static tuple reordering ablation (§5.5)
//	benchmark -fig dispatch    lean dispatch ablation (§5.5)
//	benchmark -fig scaling     worker-scaling sweep (wall time, tuples/s)
//	benchmark -fig shard       shard-scaling sweep vs unsharded baseline
//	benchmark -fig resident    resident incremental Apply vs re-running
//	benchmark -fig delete      incremental deletion vs recompute fallback
//	benchmark -fig obsv        observability layer overhead (plain vs
//	                           WithObservability on the same request stream)
//	benchmark -fig persist     durable tier overhead and cold-restart
//	                           recovery (memory vs WithPersistence)
//	benchmark -table 1         first-run compile+execute ratios (Table 1)
//	benchmark -all             everything
//
// Flags: -scale small|medium|large, -repeat N, -no-legacy, and -json DIR to
// also write each experiment's results as machine-readable BENCH_<name>.json
// (workloads, wall times, tuple throughput, worker counts, git revision).
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"

	"sti/internal/bench"
)

func main() {
	fig := flag.String("fig", "", "figure to reproduce: 15 | 16 | 18 | 19 | reorder | dispatch | scaling | shard | resident | delete | obsv | persist")
	table := flag.String("table", "", "table to reproduce: 1")
	all := flag.Bool("all", false, "run every experiment")
	scaleFlag := flag.String("scale", "small", "workload scale: small | medium | large")
	repeats := flag.Int("repeat", 1, "measurement repetitions (minimum is reported; obsv reports the median of paired ratios)")
	noLegacy := flag.Bool("no-legacy", false, "skip the slow legacy-interpreter runs in Fig 15")
	jsonDir := flag.String("json", "", "directory to write machine-readable BENCH_<experiment>.json results")
	flag.Parse()

	scale, err := bench.ParseScale(*scaleFlag)
	if err != nil {
		fatal(err)
	}
	if !*all && *fig == "" && *table == "" {
		flag.Usage()
		os.Exit(2)
	}

	w := os.Stdout
	// run executes one experiment; the returned records (nil when the
	// experiment has no machine-readable form) go to -json.
	run := func(name string, fn func() ([]bench.BenchRecord, error)) {
		records, err := fn()
		if err != nil {
			fatal(fmt.Errorf("%s: %v", name, err))
		}
		fmt.Fprintln(w)
		if *jsonDir == "" || records == nil {
			return
		}
		log := bench.NewBenchLog(name, scale, *repeats)
		log.Records = records
		path, err := log.WriteJSON(*jsonDir)
		if err != nil {
			fatal(fmt.Errorf("%s: writing json: %v", name, err))
		}
		fmt.Fprintf(os.Stderr, "wrote %s\n", path)
	}

	if *all || *fig == "15" {
		run("fig15", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Fig15(scale, *repeats, !*noLegacy, w)
			return bench.Fig15Records(rows), err
		})
	}
	if *all || *fig == "16" {
		run("fig16", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Fig16(scale, w)
			return bench.Fig16Records(rows), err
		})
	}
	if *all || *fig == "18" {
		run("fig18", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Fig18(scale, *repeats, w)
			return bench.AblationRecords(rows), err
		})
	}
	if *all || *fig == "19" {
		run("fig19", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Fig19(scale, *repeats, w)
			return bench.AblationRecords(rows), err
		})
	}
	if *all || *fig == "reorder" {
		run("reorder", func() ([]bench.BenchRecord, error) {
			rows, err := bench.FigReorder(scale, *repeats, w)
			return bench.AblationRecords(rows), err
		})
	}
	if *all || *fig == "dispatch" {
		run("dispatch", func() ([]bench.BenchRecord, error) {
			rows, err := bench.FigDispatch(scale, *repeats, w)
			return bench.AblationRecords(rows), err
		})
	}
	if *all || *fig == "scaling" {
		run("scaling", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Scaling(scale, *repeats, w)
			return bench.ScalingRecords(rows), err
		})
	}
	if *all || *fig == "shard" {
		run("shard", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Shard(scale, *repeats, w)
			return bench.ShardRecords(rows), err
		})
	}
	if *all || *fig == "resident" {
		run("resident", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Resident(scale, *repeats, w)
			return bench.ResidentRecords(rows), err
		})
	}
	if *all || *fig == "delete" {
		run("delete", func() ([]bench.BenchRecord, error) {
			rows, err := bench.Delete(scale, *repeats, w)
			return bench.DeleteRecords(rows), err
		})
	}
	if *all || *fig == "obsv" {
		run("obsv", func() ([]bench.BenchRecord, error) {
			return runObsv(scale, *repeats, w)
		})
	}
	if *all || *fig == "persist" {
		run("persist", func() ([]bench.BenchRecord, error) {
			return runPersist(scale, *repeats, w)
		})
	}
	if *all || *fig == "portfolio" {
		run("portfolio", func() ([]bench.BenchRecord, error) {
			return nil, bench.FigPortfolio(scale, *repeats, w)
		})
	}
	if *all || *table == "1" {
		run("table1", func() ([]bench.BenchRecord, error) {
			root, err := moduleRoot()
			if err != nil {
				return nil, err
			}
			rows, err := bench.Table1(scale, root, w)
			return bench.Table1Records(rows), err
		})
	}
}

func moduleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
			return dir, nil
		}
		parent := filepath.Dir(dir)
		if parent == dir {
			return "", fmt.Errorf("benchmark must run inside the sti module (go.mod not found)")
		}
		dir = parent
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchmark:", err)
	os.Exit(1)
}
