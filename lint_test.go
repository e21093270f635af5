package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"strings"
	"testing"
)

// TestNoRecover keeps failures on the result path: no non-test Go file
// outside the benchmark module calls recover(). A full node arena is a
// failed result (core.Thread.Exhausted), so nothing panics that a caller
// should catch.
func TestNoRecover(t *testing.T) {
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build" || path == "bench") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		fset := token.NewFileSet()
		f, err := parser.ParseFile(fset, path, nil, 0)
		if err != nil {
			return err
		}
		ast.Inspect(f, func(n ast.Node) bool {
			if call, ok := n.(*ast.CallExpr); ok {
				if id, ok := call.Fun.(*ast.Ident); ok && id.Name == "recover" && id.Obj == nil {
					t.Errorf("%s: recover() outside a test", fset.Position(call.Pos()))
				}
			}
			return true
		})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// mutexAllowed names every sync.Mutex/RWMutex field that may stay in a
// package TestNoMutexFields checks, keyed "dir:Type.field", with the
// reason it is not on an operation's lock-free path (or is a known
// lock still to be removed, ROADMAP item 4).
var mutexAllowed = map[string]string{
	"internal/arena:Arena.slabMu":  "taken every SlabSize-th carve to grow the slab table, item 4(a)",
	"internal/obs:ring.mu":         "the tracer ring, item 4(b)",
	"internal/obs:spanRing.mu":     "one writer (its worker) plus drain and SLOW readers",
	"internal/obs:Registry.mu":     "registration and snapshot only",
	"internal/mm:Manager.cachesMu": "cache registration only",
}

// TestNoMutexFields keeps locks off operations' paths: no struct in the
// root package, the substrate (arena, mm, hazard, kcas, core, obs) or a
// lock-free container package has a sync.Mutex or sync.RWMutex field
// unless mutexAllowed names it with a reason.
func TestNoMutexFields(t *testing.T) {
	dirs := []string{".", "internal/arena", "internal/mm", "internal/hazard", "internal/kcas",
		"internal/core", "internal/obs", "internal/msqueue", "internal/tstack", "internal/harrislist",
		"internal/hashmap", "internal/pqueue", "internal/plainqueue", "internal/plainstack"}
	seen := map[string]bool{}
	for _, dir := range dirs {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			ast.Inspect(f, func(n ast.Node) bool {
				spec, ok := n.(*ast.TypeSpec)
				if !ok {
					return true
				}
				ast.Inspect(spec.Type, func(n ast.Node) bool {
					st, ok := n.(*ast.StructType)
					if !ok {
						return true
					}
					for _, field := range st.Fields.List {
						if !isMutex(field.Type) {
							continue
						}
						names := []string{"Mutex"} // an embedded mutex
						if len(field.Names) > 0 {
							names = names[:0]
							for _, id := range field.Names {
								names = append(names, id.Name)
							}
						}
						for _, name := range names {
							key := dir + ":" + spec.Name.Name + "." + name
							seen[key] = true
							if _, ok := mutexAllowed[key]; !ok {
								t.Errorf("%s: mutex field %s is not allow-listed", fset.Position(field.Pos()), key)
							}
						}
					}
					return true
				})
				return false
			})
		}
	}
	for key := range mutexAllowed {
		if !seen[key] {
			t.Errorf("allow-listed mutex %s no longer exists: drop it from the list", key)
		}
	}
}

// isMutex reports whether a field type is sync.Mutex or sync.RWMutex,
// directly or through pointers and arrays.
func isMutex(e ast.Expr) bool {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.ArrayType:
			e = x.Elt
		case *ast.SelectorExpr:
			pkg, ok := x.X.(*ast.Ident)
			return ok && pkg.Name == "sync" && (x.Sel.Name == "Mutex" || x.Sel.Name == "RWMutex")
		default:
			return false
		}
	}
}
