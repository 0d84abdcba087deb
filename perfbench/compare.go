package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
)

// spec is the part of BENCHMARK.json compare reads.
type spec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

// runResult is one run's workload and metrics, read back from its output.
type runResult struct {
	workload string
	metrics  map[string]metric
}

// readResults reads the runs captured in path: a file of benchmark output
// or a directory of such files. A run is a provenance line followed by its
// result line.
func readResults(path string) ([]runResult, error) {
	files := []string{path}
	if info, err := os.Stat(path); err != nil {
		return nil, err
	} else if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return nil, err
		}
		files = files[:0]
		for _, e := range entries {
			if !e.IsDir() {
				files = append(files, filepath.Join(path, e.Name()))
			}
		}
	}
	var out []runResult
	for _, f := range files {
		rs, err := readResultFile(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %v", f, err)
		}
		out = append(out, rs...)
	}
	return out, nil
}

func readResultFile(path string) ([]runResult, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []runResult
	workload := ""
	sc := bufio.NewScanner(f)
	sc.Buffer(nil, 1<<24)
	for sc.Scan() {
		var line struct {
			Provenance *struct {
				Workload string `json:"workload"`
			} `json:"provenance"`
			Metrics map[string]metric `json:"metrics"`
		}
		if json.Unmarshal(sc.Bytes(), &line) != nil {
			continue
		}
		switch {
		case line.Provenance != nil:
			workload = line.Provenance.Workload
		case line.Metrics != nil && workload != "":
			out = append(out, runResult{workload, line.Metrics})
			workload = ""
		}
	}
	return out, sc.Err()
}

// quartiles returns the quartiles as Python's statistics.quantiles(xs, n=4)
// computes them (the exclusive method).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n == 1 {
		return s[0], s[0], s[0]
	}
	q := [3]float64{}
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// verdict applies the rule of choosing-metrics §8 to paired runs: a side
// is better only when it wins at least nine tenths of the pairs (ties
// count for neither) and the medians differ by more than the spread
// between the first side's quartiles.
func verdict(before, after []float64, higherBetter bool) string {
	n := min(len(before), len(after))
	if n == 0 {
		return "unresolved"
	}
	var wins, losses int
	for i := 0; i < n; i++ {
		d := after[i] - before[i]
		if higherBetter {
			d = -d
		}
		switch {
		case d < 0:
			wins++
		case d > 0:
			losses++
		}
	}
	q1, _, q3 := quartiles(before)
	if math.Abs(median(after)-median(before)) <= q3-q1 {
		return "unresolved"
	}
	switch {
	case float64(wins) >= 0.9*float64(n):
		return "better"
	case float64(losses) >= 0.9*float64(n):
		return "worse"
	}
	return "unresolved"
}

// compare prints, per workload and end-to-end metric, both sides' median
// and quartiles, the change of the median and the verdict.
func compare(w io.Writer, beforePath, afterPath string) error {
	raw, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		return err
	}
	var sp spec
	if err := json.Unmarshal(raw, &sp); err != nil {
		return fmt.Errorf("BENCHMARK.json: %v", err)
	}
	before, err := readResults(beforePath)
	if err != nil {
		return err
	}
	after, err := readResults(afterPath)
	if err != nil {
		return err
	}
	values := func(rs []runResult, workload, name string) []float64 {
		var out []float64
		for _, r := range rs {
			if v, ok := r.metrics[name]; ok && r.workload == workload {
				out = append(out, v.Value)
			}
		}
		return out
	}
	seen := map[string]bool{}
	var names []string
	for _, r := range before {
		if !seen[r.workload] {
			seen[r.workload] = true
			names = append(names, r.workload)
		}
	}
	sort.Strings(names)
	fmt.Fprintf(w, "%-9s %-10s %-38s %-38s %8s %s\n", "workload", "metric", "before median [q1, q3]", "after median [q1, q3]", "change", "verdict")
	for _, wl := range names {
		for _, e := range sp.EndToEnd {
			b, a := values(before, wl, e.Name), values(after, wl, e.Name)
			if len(b) == 0 || len(a) == 0 {
				continue
			}
			b1, bm, b3 := quartiles(b)
			a1, am, a3 := quartiles(a)
			v := verdict(b, a, e.Better == "higher")
			worse := (am - bm) / bm
			if e.Better == "higher" {
				worse = -worse
			}
			if v != "better" && worse > e.Bound {
				v += fmt.Sprintf(", beyond bound %.2f", e.Bound)
			}
			fmt.Fprintf(w, "%-9s %-10s %-38s %-38s %+7.1f%% %s (n=%d/%d)\n", wl, e.Name,
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", bm, b1, b3, e.Unit),
				fmt.Sprintf("%.4g [%.4g, %.4g] %s", am, a1, a3, e.Unit),
				100*(am-bm)/bm, v, len(b), len(a))
		}
	}
	return nil
}
