package main

import (
	_ "embed"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"math/rand"
	"runtime"
	"sort"
	"time"

	"sti"
	"sti/internal/bench"
	"sti/internal/symtab"
	"sti/internal/tuple"
	"sti/internal/value"
)

// suitePicks are the suite workload's programs, one from each paper suite.
var suitePicks = []string{"VPC/acct-corp", "DDisasm/gamess", "DOOP/fop"}

const (
	suiteWorkers = 2  // matches `sti run -j 2`
	suiteSetups  = 30 // set-up repetitions; setup_s is their median
)

// suiteProg is one program of the suite workload with its input facts,
// decoded to Go values and shuffled by the workload seed.
type suiteProg struct {
	wl    *bench.Workload
	rels  []string // input relations in a fixed order
	facts map[string][][]any
}

// relExpect is the expected size and order-independent hash of one
// relation's result.
type relExpect struct {
	Size int    `json:"size"`
	Hash string `json:"hash"`
}

// suiteExpect maps program name to relation name to its expectation.
type suiteExpect map[string]map[string]relExpect

//go:embed expect_suite.json
var expectSuiteJSON []byte

func loadSuiteExpect() (suiteExpect, error) {
	var e suiteExpect
	if err := json.Unmarshal(expectSuiteJSON, &e); err != nil {
		return nil, fmt.Errorf("expect_suite.json: %v", err)
	}
	return e, nil
}

// suiteWorkloads generates the three programs of the suite at small scale.
// The generators keep their own fixed seeds.
func suiteWorkloads() []*bench.Workload {
	var all []*bench.Workload
	all = append(all, bench.VPCSuite(bench.Small)...)
	all = append(all, bench.DisasmSuite(bench.Small)...)
	all = append(all, bench.DoopSuite(bench.Small)...)
	byName := map[string]*bench.Workload{}
	for _, wl := range all {
		byName[wl.FullName()] = wl
	}
	out := make([]*bench.Workload, len(suitePicks))
	for i, n := range suitePicks {
		out[i] = byName[n]
	}
	return out
}

// suiteInputs builds the suite's inputs; the seed shuffles fact order only.
func suiteInputs(seed int64) []*suiteProg {
	rng := rand.New(rand.NewSource(seed))
	var out []*suiteProg
	for _, wl := range suiteWorkloads() {
		p := &suiteProg{wl: wl, facts: map[string][][]any{}}
		for rel := range wl.Facts {
			p.rels = append(p.rels, rel)
		}
		sort.Strings(p.rels)
		for _, rel := range p.rels {
			rows := make([][]any, len(wl.Facts[rel]))
			for i, t := range wl.Facts[rel] {
				row := make([]any, len(t))
				for j, w := range t {
					row[j] = value.AsInt(w) // every suite attribute is a number
				}
				rows[i] = row
			}
			rng.Shuffle(len(rows), func(i, j int) { rows[i], rows[j] = rows[j], rows[i] })
			p.facts[rel] = rows
		}
		out = append(out, p)
	}
	return out
}

// input parses the program and builds its input with the root API.
func (p *suiteProg) input() (*sti.Program, *sti.Input, error) {
	prog, err := sti.Parse(p.wl.Src)
	if err != nil {
		return nil, nil, err
	}
	in := prog.NewInput()
	for _, rel := range p.rels {
		for _, row := range p.facts[rel] {
			in.Add(rel, row...)
		}
	}
	return prog, in, in.Err()
}

// run takes one suite program from source through evaluation with the
// root API: Parse, Input.Add and Run.
func (p *suiteProg) run(tr *tracer) (*sti.Result, error) {
	s := tr.begin("sti.ParseInput")
	prog, in, err := p.input()
	tr.end(s)
	if err != nil {
		return nil, err
	}
	s = tr.begin("sti.Run")
	defer tr.end(s)
	return prog.Run(in, sti.WithWorkers(suiteWorkers))
}

// checkSuite compares every expected relation's size and hash.
func checkSuite(name string, rows func(rel string) [][]any, exp suiteExpect) error {
	rels, ok := exp[name]
	if !ok || len(rels) == 0 {
		return fmt.Errorf("%s: no expectations", name)
	}
	names := make([]string, 0, len(rels))
	for rel := range rels {
		names = append(names, rel)
	}
	sort.Strings(names)
	for _, rel := range names {
		got := rows(rel)
		want := rels[rel]
		if h := rowsHash(got); len(got) != want.Size || h != want.Hash {
			return fmt.Errorf("%s: %s has %d rows (hash %s), want %d (hash %s)", name, rel, len(got), h, want.Size, want.Hash)
		}
	}
	return nil
}

// rowsHash is an order-independent hash of a relation: the sum of the
// FNV-1a hashes of its rows.
func rowsHash(rows [][]any) string {
	var sum uint64
	var buf []byte
	for _, row := range rows {
		buf = buf[:0]
		for _, v := range row {
			switch x := v.(type) {
			case int32:
				buf = binary.BigEndian.AppendUint32(append(buf, 'i'), uint32(x))
			case uint32:
				buf = binary.BigEndian.AppendUint32(append(buf, 'u'), x)
			case float32:
				buf = binary.BigEndian.AppendUint32(append(buf, 'f'), math.Float32bits(x))
			case string:
				buf = append(append(append(buf, 's'), x...), 0)
			default:
				buf = append(buf, fmt.Sprintf("?%v", x)...)
			}
		}
		h := fnv.New64a()
		h.Write(buf)
		sum += h.Sum64()
	}
	return fmt.Sprintf("%016x", sum)
}

// passStats is what one suite pass measured.
type passStats struct {
	dur                          time.Duration
	progTimes                    []float64 // us
	allocMB, gcCycles, gcPauseMs float64
}

// suitePass runs every suite program once and checks its results.
func suitePass(progs []*suiteProg, exp suiteExpect, t *tally, tr *tracer) passStats {
	var ps passStats
	var ms0, ms1 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	results := make([]*sti.Result, len(progs))
	for i, p := range progs {
		tr.request(p.wl.FullName())
		t0 := time.Now()
		res, err := p.run(tr)
		d := time.Since(t0)
		ps.dur += d
		ps.progTimes = append(ps.progTimes, micros(d))
		if err != nil {
			t.check(fmt.Errorf("%s: %v", p.wl.FullName(), err))
			continue
		}
		results[i] = res
	}
	runtime.ReadMemStats(&ms1)
	for i, res := range results {
		if res != nil {
			t.check(checkSuite(progs[i].wl.FullName(), res.Rows, exp))
		}
	}
	ps.allocMB = float64(ms1.TotalAlloc-ms0.TotalAlloc) / 1e6
	ps.gcCycles = float64(ms1.NumGC - ms0.NumGC)
	ps.gcPauseMs = float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e6
	return ps
}

// suiteStats is what one suite run measured.
type suiteStats struct {
	setups, passes, progTimes, allocs, gcCycles, gcPauseMs []float64
}

func runSuiteLoop(cfg config, t *tally, tr *tracer, budget time.Duration, minPasses int) (*suiteStats, error) {
	exp, err := loadSuiteExpect()
	if err != nil {
		return nil, err
	}
	st := &suiteStats{}
	var progs []*suiteProg
	for i := 0; i < suiteSetups; i++ {
		d, err := timeSetup(func() error {
			progs = suiteInputs(cfg.seed)
			for _, p := range progs {
				if _, _, err := p.input(); err != nil {
					return fmt.Errorf("%s: %v", p.wl.FullName(), err)
				}
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
		st.setups = append(st.setups, d)
	}
	suitePass(progs, exp, t, tr) // warm-up
	for start := time.Now(); time.Since(start) < budget || len(st.passes) < minPasses; {
		ps := suitePass(progs, exp, t, tr)
		st.passes = append(st.passes, seconds(ps.dur))
		st.progTimes = append(st.progTimes, ps.progTimes...)
		st.allocs = append(st.allocs, ps.allocMB)
		st.gcCycles = append(st.gcCycles, ps.gcCycles)
		st.gcPauseMs = append(st.gcPauseMs, ps.gcPauseMs)
	}
	return st, nil
}

func runSuite(cfg config, t *tally) (map[string]metric, error) {
	st, err := runSuiteLoop(cfg, t, nil, cfg.seconds, 1)
	if err != nil {
		return nil, err
	}
	return map[string]metric{
		"setup_s":   {median(st.setups), "s"},
		"run_s":     {median(st.passes), "s"},
		"alloc_mb":  {median(st.allocs), "MB"},
		"op_p50_us": {median(st.progTimes), "us"},
	}, nil
}

// decodeTuples renders engine tuples the way Result.Rows does, so results
// read through internal packages hash like results read through the API.
func decodeTuples(types []value.Type, st *symtab.Table, ts []tuple.Tuple) [][]any {
	out := make([][]any, len(ts))
	for i, t := range ts {
		row := make([]any, len(t))
		for j, w := range t {
			switch types[j] {
			case value.Symbol:
				row[j] = st.Resolve(w)
			case value.Float:
				row[j] = value.AsFloat(w)
			case value.Unsigned:
				row[j] = uint32(w)
			default:
				row[j] = value.AsInt(w)
			}
		}
		out[i] = row
	}
	return out
}
