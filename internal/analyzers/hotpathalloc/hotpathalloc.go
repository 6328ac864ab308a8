// Package hotpathalloc flags heap allocations inside the compressor hot
// path. The PR-5 zero-allocation contract (DESIGN.md, "Hot path") is that
// steady-state compression performs no per-batch allocation: kernels build
// output in session-owned scratch, and the slice executor draws its
// sessions from sync.Pools. A stray make or an append that regrows its
// backing array every batch silently re-introduces GC pressure that the
// benchmarks only catch after the fact; this analyzer catches it at vet
// time.
//
// A function is a hot path when its name
//
//   - starts with Compress or compress (but not Decompress/decompress:
//     decode paths return fresh buffers by contract), or
//   - is part of the serve frame path — ReadFrame/ReadFrameInto, WriteFrame,
//     writeResultFrame, decodeResultInto and the appendResult*/appendSegment*
//     helpers — which carries the same zero-allocation contract per served
//     frame (PR 10).
//
// Inside a hot path the analyzer flags
//
//   - any call to the make builtin, unless it is lexically inside an if
//     statement whose condition calls cap — the sanctioned amortized-growth
//     idiom `if cap(s.buf) < need { s.buf = make(...) }`, which allocates
//     only until the scratch reaches its high-water mark, and
//   - any self-append (x = append(x, ...)) inside a for or range loop —
//     growth that reallocates on every batch unless the destination was
//     pre-sized.
//
// Deliberate exceptions (data-dependent output sizes, non-steady-state
// entry points) must carry //lint:allow hotpathalloc <why>; the
// justification is mandatory.
package hotpathalloc

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"

	"repro/internal/analysis"
)

// Analyzer flags allocations in compressor hot-path functions.
var Analyzer = &analysis.Analyzer{
	Name: "hotpathalloc",
	Doc:  "flag make and append-growth allocations in compressor hot paths",
	Run:  run,
}

func run(pass *analysis.Pass) (any, error) {
	for _, file := range pass.Files {
		// Test helpers build fixtures however they like; only shipped code
		// carries the zero-allocation contract.
		if strings.HasSuffix(pass.Fset.Position(file.Pos()).Filename, "_test.go") {
			continue
		}
		for _, decl := range file.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil || !hotPath(fd.Name.Name) {
				continue
			}
			checkFunc(pass, fd)
		}
	}
	return nil, nil
}

// framePathPrefixes are the serve frame-codec functions under the per-frame
// zero-allocation contract. Prefix matching keeps the *Into variants covered
// by their base names; plain decodeResult is deliberately absent (it hands a
// freshly decoded Result to the caller by contract — the steady-state path
// is decodeResultInto).
var framePathPrefixes = []string{
	"ReadFrame",
	"WriteFrame",
	"writeResultFrame",
	"decodeResultInto",
	"appendResult",
	"appendSegment",
	"resultPayloadLen",
}

// hotPath reports whether a function name marks a steady-state compression
// or frame-codec path.
func hotPath(name string) bool {
	if strings.HasPrefix(name, "Decompress") || strings.HasPrefix(name, "decompress") {
		return false
	}
	if strings.HasPrefix(name, "Compress") || strings.HasPrefix(name, "compress") {
		return true
	}
	for _, p := range framePathPrefixes {
		if strings.HasPrefix(name, p) {
			return true
		}
	}
	return false
}

// span is a half-open source range.
type span struct{ pos, end token.Pos }

func (s span) contains(p token.Pos) bool { return s.pos <= p && p < s.end }

func checkFunc(pass *analysis.Pass, fd *ast.FuncDecl) {
	// First pass: collect loop bodies and the bodies of cap-guarded ifs.
	var loops, guarded []span
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ForStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.RangeStmt:
			loops = append(loops, span{n.Body.Pos(), n.Body.End()})
		case *ast.IfStmt:
			if n.Cond != nil && callsCap(pass, n.Cond) {
				guarded = append(guarded, span{n.Body.Pos(), n.Body.End()})
			}
		}
		return true
	})
	inAny := func(spans []span, p token.Pos) bool {
		for _, s := range spans {
			if s.contains(p) {
				return true
			}
		}
		return false
	}

	// Second pass: flag makes and loop self-appends.
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			if isBuiltin(pass, n.Fun, "make") && !inAny(guarded, n.Pos()) {
				pass.Reportf(n.Pos(), "make in hot path %s allocates every batch; reuse session or pool scratch behind a cap guard, or //lint:allow hotpathalloc <why>", fd.Name.Name)
			}
		case *ast.AssignStmt:
			if call, ok := selfAppend(pass, n); ok && inAny(loops, n.Pos()) {
				pass.Reportf(call.Pos(), "append growth in loop in hot path %s; pre-size the destination or //lint:allow hotpathalloc <why>", fd.Name.Name)
			}
		}
		return true
	})
}

// selfAppend matches x = append(x, ...) — an assignment whose single RHS is
// an append call writing back to its own first argument.
func selfAppend(pass *analysis.Pass, n *ast.AssignStmt) (*ast.CallExpr, bool) {
	if len(n.Lhs) != 1 || len(n.Rhs) != 1 {
		return nil, false
	}
	call, ok := n.Rhs[0].(*ast.CallExpr)
	if !ok || !isBuiltin(pass, call.Fun, "append") || len(call.Args) == 0 {
		return nil, false
	}
	if types.ExprString(n.Lhs[0]) != types.ExprString(call.Args[0]) {
		return nil, false
	}
	return call, true
}

// callsCap reports whether expr contains a call to the cap builtin.
func callsCap(pass *analysis.Pass, expr ast.Expr) bool {
	found := false
	ast.Inspect(expr, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok && isBuiltin(pass, call.Fun, "cap") {
			found = true
		}
		return !found
	})
	return found
}

// isBuiltin reports whether fun resolves to the named universe builtin
// (shadowed identifiers do not count).
func isBuiltin(pass *analysis.Pass, fun ast.Expr, name string) bool {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok || id.Name != name {
		return false
	}
	obj := pass.TypesInfo.Uses[id]
	_, builtin := obj.(*types.Builtin)
	return builtin && obj.Name() == name
}
