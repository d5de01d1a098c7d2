// Package memokey polices the engine's memoization keyspace — the
// PR-5 bug class where a circuit's *name* leaked into a memo key, so
// two different netlists sharing a name aliased each other's cached
// results. The durable store and in-memory memos must key on content:
// netlist.Fingerprint for circuits, PathSignature for paths.
//
// Three rules, all scoped to repro/internal/engine:
//
//  1. The Cache struct's memo fields (results, bounds) must be keyed
//     by a named key type, not predeclared string — so the compiler
//     separates task keys from circuit names and the other
//     string-shaped identifiers flowing through the engine. A field is
//     a map (its key type) or the engine's generic memo[K, V], by value
//     or pointer (its first type argument K).
//  2. A conversion to one of those key types whose operand reads
//     netlist.Circuit.Name is flagged: deriving a memo key from a
//     circuit's display name is exactly the aliasing bug. (Process
//     corner names are fine — distinct corners are distinct by name.)
//     Keys derive from netlist.Fingerprint / PathSignature.
//  3. Calls to the durable tier (store.Store Get/Put) must pass
//     storeKeyFor(…) as the key, keeping the content-address
//     derivation in one audited place.
package memokey

import (
	"go/ast"
	"go/types"

	"popslint/internal/analysis"
	"popslint/internal/lintutil"
)

const (
	// EnginePath is the only package the analyzer inspects.
	EnginePath = "repro/internal/engine"
	// StorePath hosts the durable-tier interface whose Get/Put calls
	// must go through storeKeyFor.
	StorePath = "repro/internal/store"
)

// memoFields are the Cache fields that memoize derived results and
// therefore must not be name-keyed. (aliases is exempt by design: it
// maps a display name to a fingerprint — the value is the content key.)
var memoFields = map[string]bool{"results": true, "bounds": true}

var Analyzer = &analysis.Analyzer{
	Name: "memokey",
	Doc:  "engine memo maps and store calls must key on content-derived types (Fingerprint/PathSignature), never circuit names",
	Run:  run,
}

func run(pass *analysis.Pass) error {
	if pass.Pkg.Path() != EnginePath {
		return nil
	}
	for _, f := range pass.Files {
		if len(f.Decls) > 0 && pass.InTestFile(f.Decls[0].Pos()) {
			continue
		}
		ast.Inspect(f, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.TypeSpec:
				checkCacheFields(pass, n)
			case *ast.CallExpr:
				checkKeyConversion(pass, n)
				checkStoreCall(pass, n)
			}
			return true
		})
	}
	return nil
}

// checkCacheFields enforces rule 1 on the Cache struct declaration.
func checkCacheFields(pass *analysis.Pass, spec *ast.TypeSpec) {
	if spec.Name.Name != "Cache" {
		return
	}
	st, ok := spec.Type.(*ast.StructType)
	if !ok {
		return
	}
	for _, field := range st.Fields.List {
		for _, name := range field.Names {
			if !memoFields[name.Name] {
				continue
			}
			key := memoKeyType(pass.TypesInfo.TypeOf(field.Type))
			if key != nil && !isNamedKeyType(key) {
				pass.Reportf(field.Pos(),
					"Cache.%s is keyed by %s: memos must use a named key type derived from netlist.Fingerprint/PathSignature, not raw strings (circuit-name aliasing)",
					name.Name, key)
			}
		}
	}
}

// memoKeyType returns the key type of a memo field: the first type
// argument of the engine's generic memo (by value or pointer), or a
// map's key type. It returns nil for any other type.
func memoKeyType(t types.Type) types.Type {
	t = types.Unalias(t)
	if p, ok := t.(*types.Pointer); ok {
		t = types.Unalias(p.Elem())
	}
	if n, ok := t.(*types.Named); ok && n.TypeArgs().Len() > 0 &&
		n.Obj().Name() == "memo" && n.Obj().Pkg() != nil && n.Obj().Pkg().Path() == EnginePath {
		return n.TypeArgs().At(0)
	}
	if m, ok := t.Underlying().(*types.Map); ok {
		return m.Key()
	}
	return nil
}

// isNamedKeyType reports whether t is a declared (non-predeclared) key
// type — a defined type such as taskKey, whatever its underlying.
func isNamedKeyType(t types.Type) bool {
	n, ok := types.Unalias(t).(*types.Named)
	return ok && n.Obj() != nil && n.Obj().Pkg() != nil
}

// checkKeyConversion enforces rule 2: key-type conversions whose
// operand reads a .Name field.
func checkKeyConversion(pass *analysis.Pass, call *ast.CallExpr) {
	tv, ok := pass.TypesInfo.Types[ast.Unparen(call.Fun)]
	if !ok || !tv.IsType() || len(call.Args) != 1 {
		return
	}
	target, ok := types.Unalias(tv.Type).(*types.Named)
	if !ok || target.Obj().Pkg() == nil || target.Obj().Pkg().Path() != EnginePath {
		return
	}
	if b, ok := target.Underlying().(*types.Basic); !ok || b.Info()&types.IsString == 0 {
		return
	}
	if sel := findCircuitName(pass, call.Args[0]); sel != nil {
		pass.Reportf(sel.Pos(),
			"memo key %s built from Circuit.Name: display names alias across distinct netlists — derive keys from netlist.Fingerprint or PathSignature",
			target.Obj().Name())
	}
}

// findCircuitName returns a selector reading netlist.Circuit's Name
// field inside e, or nil. Hashed derivations (Fingerprint(c) calls)
// take the Circuit, not its Name, so they never match.
func findCircuitName(pass *analysis.Pass, e ast.Expr) *ast.SelectorExpr {
	var found *ast.SelectorExpr
	ast.Inspect(e, func(n ast.Node) bool {
		if found != nil {
			return false
		}
		sel, ok := n.(*ast.SelectorExpr)
		if !ok || sel.Sel.Name != "Name" {
			return true
		}
		if lintutil.IsNamed(pass.TypesInfo.TypeOf(sel.X), "repro/internal/netlist", "Circuit") {
			found = sel
			return false
		}
		return true
	})
	return found
}

// checkStoreCall enforces rule 3: the durable tier's Get/Put key
// argument must be storeKeyFor(…).
func checkStoreCall(pass *analysis.Pass, call *ast.CallExpr) {
	callee := lintutil.CalleeFunc(pass.TypesInfo, call)
	if callee == nil || (callee.Name() != "Get" && callee.Name() != "Put") {
		return
	}
	sig, ok := callee.Type().(*types.Signature)
	if !ok || sig.Recv() == nil {
		return
	}
	recv := sig.Recv().Type()
	// Method on a store-package type, or on the Store interface itself.
	if n := lintutil.NamedFrom(recv); n == nil || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != StorePath {
		if _, isIface := types.Unalias(recv).Underlying().(*types.Interface); !isIface {
			return
		}
		iface := lintutil.LookupInterface(pass.Pkg, StorePath, "Store")
		if iface == nil || !types.Implements(types.NewPointer(recv), iface) && !types.Implements(recv, iface) {
			return
		}
	}
	if len(call.Args) == 0 {
		return
	}
	keyArg, ok := ast.Unparen(call.Args[0]).(*ast.CallExpr)
	if ok {
		if fn := lintutil.CalleeFunc(pass.TypesInfo, keyArg); fn != nil && fn.Name() == "storeKeyFor" {
			return
		}
	}
	pass.Reportf(call.Args[0].Pos(),
		"store.%s key must be derived via storeKeyFor(…) so the durable tier is content-addressed", callee.Name())
}
