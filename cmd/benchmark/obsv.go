package main

import (
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"sti"
	"sti/internal/bench"
)

// obsvSrc is the observability-overhead workload: transitive closure on
// disjoint chains, the same shape the resident benchmark uses, driven
// through the public Database API so the instrumented Apply/Query wrappers
// are on the measured path.
const obsvSrc = `
.decl edge(x:number, y:number)
.decl path(x:number, y:number)
.input edge
.output path
path(x, y) :- edge(x, y).
path(x, z) :- path(x, y), edge(y, z).
`

// obsvShape sizes the request stream: a component-chain base, then batches
// of chain extensions each followed by a burst of point queries — the mix a
// resident serve deployment sees.
type obsvShape struct {
	components int
	chainLen   int
	batches    int
	batchSize  int
	queries    int // point queries after each batch
}

const obsvStride = 1 << 16

func obsvShapeAt(scale bench.Scale) obsvShape {
	return obsvShape{
		components: []int{50, 200, 400}[scale],
		chainLen:   64,
		batches:    []int{25, 50, 100}[scale],
		batchSize:  8,
		queries:    30,
	}
}

// obsvLonger stretches the overhead measurement's stream beyond the shape the
// persist benchmark shares: at small scale one variant's stream then takes
// a few hundred milliseconds.
const obsvLonger = 8

// runObsv measures the end-to-end overhead of the observability layer: the
// same apply+query stream runs against a plain database and one opened
// WithObservability (histograms live, slow threshold armed but never
// crossed). Each repeat opens both databases and interleaves them batch by
// batch (ABAB, the first variant alternating per batch), so host noise and
// drift land on both sides of a pair alike; it yields one paired ratio,
// observed/plain total wall. The observed row's Ratio is the median of those
// paired ratios (one untimed warm-up pair first) and each row's wall is its
// median. The CI regression guard holds the ratio under the documented 2%
// budget (docs/OPERATIONS.md) with -repeat 9.
func runObsv(scale bench.Scale, repeats int, w io.Writer) ([]bench.BenchRecord, error) {
	shape := obsvShapeAt(scale)
	shape.batches *= obsvLonger
	prog, err := sti.Parse(obsvSrc)
	if err != nil {
		return nil, err
	}
	observed := []sti.Option{sti.WithObservability(sti.ObservabilityConfig{
		SlowRequest: time.Minute, // armed, never crossed: the realistic hot path
	})}
	pairs := max(repeats, 1)
	fmt.Fprintf(w, "observability overhead (scale=%s; %d base edges, %d batches of %d edges + %d queries each; %d paired runs)\n",
		scale, shape.components*(shape.chainLen-1), shape.batches, shape.batchSize, shape.queries, pairs)
	fmt.Fprintf(w, "%-14s %12s %10s %8s\n", "variant", "wall", "tuples", "ratio")

	var plainWalls, obsWalls, ratios []float64
	var tuples [2]int
	for rep := -1; rep < pairs; rep++ {
		walls, sizes, err := obsvPair(prog, shape, nil, observed)
		if err != nil {
			return nil, err
		}
		if sizes[0] != sizes[1] {
			return nil, fmt.Errorf("obsv: tuple mismatch: plain=%d observed=%d", sizes[0], sizes[1])
		}
		tuples = sizes
		if rep < 0 {
			continue // warm-up
		}
		plainWalls = append(plainWalls, float64(walls[0]))
		obsWalls = append(obsWalls, float64(walls[1]))
		ratios = append(ratios, float64(walls[1])/float64(walls[0]))
	}
	ratio := median(ratios)
	rows := []struct {
		name  string
		walls []float64
	}{{"plain", plainWalls}, {"observed", obsWalls}}
	var records []bench.BenchRecord
	for i, row := range rows {
		wall := time.Duration(median(row.walls))
		r := bench.BenchRecord{
			Workload: fmt.Sprintf("tc-%dx%d", shape.components, shape.chainLen),
			Variant:  row.name,
			WallNs:   wall.Nanoseconds(),
			Tuples:   tuples[i],
		}
		if row.name == "observed" {
			r.Ratio = ratio
		}
		records = append(records, r)
		fmt.Fprintf(w, "%-14s %12v %10d %8.3f\n",
			r.Variant, wall.Round(time.Microsecond), r.Tuples, r.Ratio)
	}
	sort.Float64s(ratios)
	fmt.Fprintf(w, "paired ratios: min %.3f, median %.3f, max %.3f\n", ratios[0], ratio, ratios[len(ratios)-1])
	return records, nil
}

// median returns the median of xs, averaging the middle two of an even
// count. xs must not be empty; it is left unsorted.
func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// obsvPair runs the stream against two databases, opened with optsA and
// optsB, interleaved batch by batch; which runs first alternates per batch.
// It returns each side's total wall and final path size.
func obsvPair(prog *sti.Program, shape obsvShape, optsA, optsB []sti.Option) ([2]time.Duration, [2]int, error) {
	var walls [2]time.Duration
	var sizes [2]int
	var dbs [2]*sti.Database
	for i, opts := range [][]sti.Option{optsA, optsB} {
		db, err := obsvOpen(prog, shape, opts)
		if err != nil {
			return walls, sizes, err
		}
		defer db.Close()
		dbs[i] = db
	}
	runtime.GC()
	for bi := 0; bi < shape.batches; bi++ {
		for j := 0; j < 2; j++ {
			side := (bi + j) % 2
			start := time.Now()
			if err := obsvBatch(dbs[side], shape, bi); err != nil {
				return walls, sizes, err
			}
			walls[side] += time.Since(start)
		}
	}
	for i, db := range dbs {
		n, err := db.Size("path")
		if err != nil {
			return walls, sizes, err
		}
		sizes[i] = n
	}
	return walls, sizes, nil
}

// obsvStream opens a database, loads the chain base (untimed), then times
// the batch/query stream and returns the wall time and final path size.
func obsvStream(prog *sti.Program, shape obsvShape, opts []sti.Option) (time.Duration, int, error) {
	db, err := obsvOpen(prog, shape, opts)
	if err != nil {
		return 0, 0, err
	}
	defer db.Close()
	start := time.Now()
	for bi := 0; bi < shape.batches; bi++ {
		if err := obsvBatch(db, shape, bi); err != nil {
			return 0, 0, err
		}
	}
	elapsed := time.Since(start)
	n, err := db.Size("path")
	if err != nil {
		return 0, 0, err
	}
	return elapsed, n, nil
}

// obsvOpen opens a database and applies the chain base.
func obsvOpen(prog *sti.Program, shape obsvShape, opts []sti.Option) (*sti.Database, error) {
	db, err := prog.Open(opts...)
	if err != nil {
		return nil, err
	}
	base := db.NewBatch()
	for c := 0; c < shape.components; c++ {
		for i := 0; i < shape.chainLen-1; i++ {
			base.Add("edge", c*obsvStride+i, c*obsvStride+i+1)
		}
	}
	if err := db.Apply(base); err != nil {
		db.Close()
		return nil, err
	}
	return db, nil
}

// obsvBatch applies batch bi of chain extensions, then runs its point
// queries.
func obsvBatch(db *sti.Database, shape obsvShape, bi int) error {
	b := db.NewBatch()
	for j := 0; j < shape.batchSize; j++ {
		k := bi*shape.batchSize + j
		c := k % shape.components
		ext := k / shape.components
		tail := c*obsvStride + shape.chainLen - 1 + ext
		b.Add("edge", tail, tail+1)
	}
	if err := db.Apply(b); err != nil {
		return err
	}
	for q := 0; q < shape.queries; q++ {
		c := (bi*shape.queries + q) % shape.components
		if _, err := db.Query("path", c*obsvStride, nil); err != nil {
			return err
		}
	}
	return nil
}
