package cstream_test

import (
	"flag"
	"fmt"
	"go/types"
	"os"
	"sort"
	"strings"
	"testing"

	"repro/internal/analysis/load"
)

var updateAPI = flag.Bool("update", false, "rewrite api.txt from the package's exported API")

// TestAPI pins the package's exported surface to api.txt, one line per
// exported identifier, field and method with its signature, in the format of
// Go's own api/ check ("pkg P, func F(T) R"). Any added, removed or changed
// identifier fails the test; after an intended change, regenerate with
//
//	go test ./pkg/cstream -run TestAPI -update
func TestAPI(t *testing.T) {
	pkgs, err := load.Module(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	var pkg *load.Package
	for _, p := range pkgs {
		if p.Name == "cstream" {
			pkg = p
		}
	}
	if pkg == nil {
		t.Fatal("package cstream not loaded")
	}
	got := strings.Join(apiLines(pkg), "\n") + "\n"
	if *updateAPI {
		if err := os.WriteFile("api.txt", []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile("api.txt")
	if err != nil {
		t.Fatal(err)
	}
	if got != string(want) {
		t.Errorf("exported API drifted from api.txt (regenerate with -update if intended):\n%s",
			lineDiff(strings.Split(string(want), "\n"), strings.Split(got, "\n")))
	}
}

// apiLines renders every exported, non-test identifier of pkg as sorted
// api-file lines. A type's method set includes promoted methods, so an
// embedded type's surface shows on the embedding type.
func apiLines(lp *load.Package) []string {
	pkg := lp.Types
	qual := func(p *types.Package) string {
		if p == pkg {
			return ""
		}
		return p.Path()
	}
	typ := func(t types.Type) string { return types.TypeString(t, qual) }
	prefix := "pkg " + pkg.Path() + ", "
	var out []string
	add := func(format string, args ...any) { out = append(out, prefix+fmt.Sprintf(format, args...)) }

	scope := pkg.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if !obj.Exported() || strings.HasSuffix(lp.Fset.Position(obj.Pos()).Filename, "_test.go") {
			continue
		}
		switch obj := obj.(type) {
		case *types.Const:
			add("const %s %s = %s", name, typ(obj.Type()), obj.Val().ExactString())
		case *types.Var:
			add("var %s %s", name, typ(obj.Type()))
		case *types.Func:
			add("func %s%s", name, signature(obj.Type().(*types.Signature), typ))
		case *types.TypeName:
			if obj.IsAlias() {
				// The target's fields and methods are this package's
				// surface too; they follow under the alias name.
				add("type %s = %s", name, typ(obj.Type()))
			}
			switch u := obj.Type().Underlying().(type) {
			case *types.Struct:
				add("type %s struct", name)
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					switch {
					case f.Embedded():
						add("type %s struct, embedded %s", name, typ(f.Type()))
					case f.Exported():
						add("type %s struct, %s %s", name, f.Name(), typ(f.Type()))
					}
				}
			case *types.Interface:
				var methods []string
				sealed := false
				for i := 0; i < u.NumMethods(); i++ {
					m := u.Method(i)
					if !m.Exported() {
						sealed = true
						continue
					}
					methods = append(methods, m.Name())
					add("type %s interface, %s%s", name, m.Name(), signature(m.Type().(*types.Signature), typ))
				}
				if sealed {
					methods = append(methods, "unexported methods")
				}
				add("type %s interface { %s }", name, strings.Join(methods, ", "))
			default:
				add("type %s %s", name, typ(u))
			}
			named := obj.Type()
			if _, ok := named.Underlying().(*types.Interface); ok {
				break
			}
			valueSet := types.NewMethodSet(named)
			for i := 0; i < valueSet.Len(); i++ {
				if m := valueSet.At(i).Obj(); m.Exported() {
					add("method (%s) %s%s", name, m.Name(), signature(m.Type().(*types.Signature), typ))
				}
			}
			ptrSet := types.NewMethodSet(types.NewPointer(named))
			for i := 0; i < ptrSet.Len(); i++ {
				if m := ptrSet.At(i).Obj(); m.Exported() && valueSet.Lookup(pkg, m.Name()) == nil {
					add("method (*%s) %s%s", name, m.Name(), signature(m.Type().(*types.Signature), typ))
				}
			}
		}
	}
	sort.Strings(out)
	return out
}

// signature renders a function type without parameter names, as Go's api
// files do: "(string, ...Option) (*Session, error)".
func signature(sig *types.Signature, typ func(types.Type) string) string {
	tuple := func(tup *types.Tuple, variadic bool) []string {
		var parts []string
		for i := 0; i < tup.Len(); i++ {
			t := tup.At(i).Type()
			if variadic && i == tup.Len()-1 {
				parts = append(parts, "..."+typ(t.(*types.Slice).Elem()))
				continue
			}
			parts = append(parts, typ(t))
		}
		return parts
	}
	s := "(" + strings.Join(tuple(sig.Params(), sig.Variadic()), ", ") + ")"
	switch res := tuple(sig.Results(), false); len(res) {
	case 0:
	case 1:
		s += " " + res[0]
	default:
		s += " (" + strings.Join(res, ", ") + ")"
	}
	return s
}

// lineDiff lists the lines only in want ("-") and only in got ("+").
func lineDiff(want, got []string) string {
	in := func(xs []string) map[string]bool {
		m := map[string]bool{}
		for _, x := range xs {
			m[x] = true
		}
		return m
	}
	w, g := in(want), in(got)
	var b strings.Builder
	for _, x := range want {
		if !g[x] {
			fmt.Fprintf(&b, "-%s\n", x)
		}
	}
	for _, x := range got {
		if !w[x] {
			fmt.Fprintf(&b, "+%s\n", x)
		}
	}
	return b.String()
}
