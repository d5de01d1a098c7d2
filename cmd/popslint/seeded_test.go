package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"go/types"
	"strings"
	"testing"

	"popslint/internal/analysis"
	"popslint/internal/analyzers/locksafe"
	"popslint/internal/analyzers/maporder"
	"popslint/internal/analyzers/memokey"
	"popslint/internal/analyzers/parcapture"
	"popslint/internal/analyzers/rngstream"
)

// The seeded-violation tests are the suite's dead-man switch: each
// one injects the exact bug class an analyzer exists to catch — a
// captured-scalar write, a global rand.Intn, an unsorted map-order
// leak, a held-lock channel send — into an in-memory package with the
// production import path, runs the full suite through the same
// analysis.Run entrypoint CI uses, and demands a red result. If an
// analyzer regresses into silence, these fail before the tree can
// start quietly accumulating the bugs.

// memPkg is one in-memory package for the seeded harness.
type memPkg struct {
	path string
	src  string
}

// fakePar mirrors the executor shapes the concurrency analyzers key on.
const fakePar = `package par
func Chunk(i, k, n int) (lo, hi int) { return i * n / k, (i + 1) * n / k }
func Run(k int, fn func(i int)) { fn(0) }
func Wavefront(workers int, offsets []int, minSpan int, reverse bool, fn func(lo, hi int)) { fn(0, 0) }
`

const fakeSync = `package sync
type Mutex struct{ state int }
func (m *Mutex) Lock()   {}
func (m *Mutex) Unlock() {}
`

const fakeRand = `package rand
func Intn(n int) int { return 0 }
`

// analyzeSeeded typechecks the dependency packages then the target,
// and returns the target's filtered diagnostics from the given
// analyzer.
func analyzeSeeded(t *testing.T, a *analysis.Analyzer, deps []memPkg, target memPkg) []analysis.Diagnostic {
	t.Helper()
	fset := token.NewFileSet()
	universe := map[string]*types.Package{}
	importer := importerFor(universe)
	for _, p := range append(deps, target) {
		f, err := parser.ParseFile(fset, strings.ReplaceAll(p.path, "/", "_")+".go", p.src, parser.ParseComments)
		if err != nil {
			t.Fatalf("parsing %s: %v", p.path, err)
		}
		info := &types.Info{
			Types:      make(map[ast.Expr]types.TypeAndValue),
			Defs:       make(map[*ast.Ident]types.Object),
			Uses:       make(map[*ast.Ident]types.Object),
			Selections: make(map[*ast.SelectorExpr]*types.Selection),
			Scopes:     make(map[ast.Node]*types.Scope),
		}
		cfg := &types.Config{Importer: importer}
		pkg, err := cfg.Check(p.path, fset, []*ast.File{f}, info)
		if err != nil {
			t.Fatalf("typechecking %s: %v", p.path, err)
		}
		universe[p.path] = pkg
		if p.path == target.path {
			pass := &analysis.Pass{Fset: fset, Files: []*ast.File{f}, Pkg: pkg, TypesInfo: info}
			diags, err := analysis.Run([]*analysis.Analyzer{a}, pass)
			if err != nil {
				t.Fatalf("running %s: %v", a.Name, err)
			}
			return diags
		}
	}
	return nil
}

type importerFor map[string]*types.Package

func (m importerFor) Import(path string) (*types.Package, error) {
	if p, ok := m[path]; ok {
		return p, nil
	}
	return nil, &types.Error{Msg: "seeded harness: unknown import " + path}
}

// wantRed asserts at least one diagnostic matching the substring.
func wantRed(t *testing.T, diags []analysis.Diagnostic, substr string) {
	t.Helper()
	for _, d := range diags {
		if strings.Contains(d.Message, substr) {
			return
		}
	}
	t.Errorf("seeded violation not caught: no diagnostic containing %q in %d finding(s): %+v",
		substr, len(diags), diags)
}

func TestSeededCapturedScalarWriteGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, parcapture.Analyzer,
		[]memPkg{{"repro/internal/par", fakePar}},
		memPkg{"repro/internal/power", `package power
import "repro/internal/par"
func tally(n, k int) int {
	count := 0
	par.Run(k, func(i int) {
		lo, hi := par.Chunk(i, k, n)
		for j := lo; j < hi; j++ {
			count++ // seeded violation: captured-scalar write
		}
	})
	return count
}
`})
	wantRed(t, diags, "write to captured count")
}

func TestSeededGlobalRandGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, rngstream.Analyzer,
		[]memPkg{{"math/rand", fakeRand}},
		memPkg{"repro/internal/power", `package power
import "math/rand"
func vector(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = rand.Intn(2) // seeded violation: global stream
	}
	return out
}
`})
	wantRed(t, diags, "global rand.Intn")
}

func TestSeededMapOrderLeakGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, maporder.Analyzer, nil,
		memPkg{"repro/internal/engine", `package engine
func keysOf(m map[string]int) []string {
	var keys []string
	for k := range m {
		keys = append(keys, k) // seeded violation: unsorted map-order leak
	}
	return keys
}
`})
	wantRed(t, diags, "append to keys inside map iteration")
}

func TestSeededHeldLockSendGoesRed(t *testing.T) {
	diags := analyzeSeeded(t, locksafe.Analyzer,
		[]memPkg{{"sync", fakeSync}},
		memPkg{"repro/internal/store", `package store
import "sync"
type notifier struct {
	mu sync.Mutex
	ch chan int
	n  int
}
func (x *notifier) bump() {
	x.mu.Lock()
	x.n++
	x.ch <- x.n // seeded violation: channel send under the lock
	x.mu.Unlock()
}
`})
	wantRed(t, diags, "channel send while holding x.mu")
}

// TestSeededStringKeyedMemoGoesRed: the engine's memos are values of
// the generic memo[K, V], so memokey rule 1 must read the key off the
// type argument; a map-shaped memo field stays covered too. The
// taskKey-keyed control must stay green.
func TestSeededStringKeyedMemoGoesRed(t *testing.T) {
	const shape = `package engine
type taskKey string
type memo[K comparable, V any] struct{ entries map[K]V }
type Cache struct {
	results %s
}
`
	for _, field := range []string{
		"*memo[string, int] // seeded violation: string-keyed generic memo",
		"memo[string, int] // seeded violation: by value",
		"map[string]int // seeded violation: string-keyed memo map",
	} {
		diags := analyzeSeeded(t, memokey.Analyzer, nil,
			memPkg{"repro/internal/engine", fmt.Sprintf(shape, field)})
		wantRed(t, diags, "Cache.results is keyed by string")
	}
	if diags := analyzeSeeded(t, memokey.Analyzer, nil,
		memPkg{"repro/internal/engine", fmt.Sprintf(shape, "*memo[taskKey, int]")}); len(diags) != 0 {
		t.Errorf("taskKey-keyed memo flagged: %+v", diags)
	}
}

// TestSeededCleanStaysGreen is the control: the blessed version of
// each shape produces no findings, so the red tests above fail for
// the right reason.
func TestSeededCleanStaysGreen(t *testing.T) {
	diags := analyzeSeeded(t, parcapture.Analyzer,
		[]memPkg{{"repro/internal/par", fakePar}},
		memPkg{"repro/internal/power", `package power
import "repro/internal/par"
func tally(vals []int, k int) int {
	sums := make([]int, k)
	par.Run(k, func(i int) {
		lo, hi := par.Chunk(i, k, len(vals))
		s := 0
		for j := lo; j < hi; j++ {
			s += vals[j]
		}
		sums[i] = s
	})
	total := 0
	for _, s := range sums {
		total += s
	}
	return total
}
`})
	if len(diags) != 0 {
		t.Errorf("clean parallel reduction flagged: %+v", diags)
	}
}
