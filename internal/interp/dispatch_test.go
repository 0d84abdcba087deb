package interp

import (
	"go/ast"
	"go/parser"
	"go/token"
	"path/filepath"
	"strings"
	"testing"

	"sti/internal/ram"
	"sti/internal/tuple"
)

// TestDispatchHasNoDefer keeps the per-dispatch tax out of the hot loop. A
// defer anywhere in (*executor).execute or eval, even a conditional one,
// makes the compiled function run the deferred-call epilogue on every
// return, that is on every node the interpreter visits: the Go analogue of
// the callee-saved spills the paper's §4.3 removes. Work that needs a defer
// belongs in a helper called once per query (execQuery).
func TestDispatchHasNoDefer(t *testing.T) {
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	fset := token.NewFileSet()
	found := map[string]bool{}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Recv == nil || (fn.Name.Name != "execute" && fn.Name.Name != "eval") {
				continue
			}
			star, ok := fn.Recv.List[0].Type.(*ast.StarExpr)
			if !ok {
				continue
			}
			if id, ok := star.X.(*ast.Ident); !ok || id.Name != "executor" {
				continue
			}
			found[fn.Name.Name] = true
			ast.Inspect(fn.Body, func(n ast.Node) bool {
				if d, ok := n.(*ast.DeferStmt); ok {
					t.Errorf("%s: (*executor).%s contains a defer", fset.Position(d.Pos()), fn.Name.Name)
				}
				return true
			})
		}
	}
	for _, name := range []string{"execute", "eval"} {
		if !found[name] {
			t.Errorf("(*executor).%s not found; update this test if it moved", name)
		}
	}
}

// findQuery returns the first query of s whose label starts with prefix.
func findQuery(s ram.Statement, prefix string) *ram.Query {
	switch s := s.(type) {
	case *ram.Query:
		if strings.HasPrefix(s.Label, prefix) {
			return s
		}
	case *ram.Sequence:
		for _, st := range s.Stmts {
			if q := findQuery(st, prefix); q != nil {
				return q
			}
		}
	case *ram.Loop:
		return findQuery(s.Body, prefix)
	case *ram.LogTimer:
		return findQuery(s.Stmt, prefix)
	}
	return nil
}

// TestQueryAllocsIndependentOfFacts re-runs a query over N facts whose
// result is already complete, so it derives nothing new: a scan, a
// fully-bound and a prefix existence check, and an insert per fact. Its
// allocations must not grow with N, on the static opcodes and on the
// dynamic adapter path alike: the per-query context is allocated once and
// no operation allocates per tuple.
func TestQueryAllocsIndependentOfFacts(t *testing.T) {
	const src = `
.decl e(x:number, y:number)
.decl r(x:number, y:number)
.input e
.output r
r(x, y) :- e(x, y), e(y, _), !e(y, x).
`
	allocs := func(t *testing.T, cfg Config, n int) float64 {
		t.Helper()
		eng, _ := run(t, src, map[string][]tuple.Tuple{"e": chainFacts(n)["edge"]}, cfg)
		if got := eng.Relation("r").Size(); got != n-1 {
			t.Fatalf("r has %d tuples, want %d", got, n-1)
		}
		q := findQuery(eng.prog.Main, "r(")
		if q == nil {
			t.Fatal("query for r not found")
		}
		root := eng.gen.genStatement(q)
		io := NewMemIO()
		return testing.AllocsPerRun(20, func() {
			if err := eng.execTree(io, root); err != nil {
				t.Fatal(err)
			}
		})
	}
	for _, static := range []bool{true, false} {
		name := "static"
		if !static {
			name = "dynamic"
		}
		t.Run(name, func(t *testing.T) {
			cfg := DefaultConfig()
			cfg.StaticDispatch = static
			small, large := allocs(t, cfg, 1000), allocs(t, cfg, 4000)
			if small != large {
				t.Fatalf("allocs per query run: %v at 1000 facts, %v at 4000", small, large)
			}
		})
	}
}
