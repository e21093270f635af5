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
// reason it is not on an operation's lock-free path.
var mutexAllowed = map[string]string{
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

// TestSharedReadsGuarded keeps the containers' plain path honest: in
// msqueue, tstack and harrislist a Read call must sit in the then-branch
// of an if whose condition tests word.IsDesc (the word holds a
// descriptor), and an SCASInsert or SCASRemove call in the then-branch of
// an if on t.MoveInFlight() or the else-branch of one on
// !t.MoveInFlight(). Everywhere else the containers run the plain case
// themselves: a load and a plain CAS. The plain branch of an if on
// !t.MoveInFlight() must count its lost CAS (LostCAS), as the scas it
// stands in for would.
func TestSharedReadsGuarded(t *testing.T) {
	for _, dir := range []string{"internal/msqueue", "internal/tstack", "internal/harrislist"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			var stack []ast.Node // the path from the file to the node Inspect visits
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				if ifs, ok := n.(*ast.IfStmt); ok {
					if not, ok := ifs.Cond.(*ast.UnaryExpr); ok && not.Op == token.NOT && isMethodCall(not.X, "MoveInFlight") &&
						!containsCall(ifs.Body, func(sel *ast.SelectorExpr) bool { return sel.Sel.Name == "LostCAS" }) {
						t.Errorf("%s: plain-path CAS branch does not call LostCAS", fset.Position(ifs.Pos()))
					}
				}
				call, ok := n.(*ast.CallExpr)
				if !ok {
					return true
				}
				sel, ok := call.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				var guarded func(cond ast.Expr, then bool) bool
				switch sel.Sel.Name {
				case "Read":
					guarded = func(cond ast.Expr, then bool) bool {
						return then && containsCall(cond, func(sel *ast.SelectorExpr) bool {
							pkg, ok := sel.X.(*ast.Ident)
							return ok && pkg.Name == "word" && sel.Sel.Name == "IsDesc"
						})
					}
				case "SCASInsert", "SCASRemove":
					guarded = func(cond ast.Expr, then bool) bool {
						if not, ok := cond.(*ast.UnaryExpr); ok && not.Op == token.NOT {
							return !then && isMethodCall(not.X, "MoveInFlight")
						}
						return then && isMethodCall(cond, "MoveInFlight")
					}
				default:
					return true
				}
				calls++
				for i := len(stack) - 2; i >= 0; i-- {
					if ifs, ok := stack[i].(*ast.IfStmt); ok {
						child := stack[i+1]
						if (child == ifs.Body || child == ifs.Else) && guarded(ifs.Cond, child == ifs.Body) {
							return true
						}
					}
					if _, ok := stack[i].(*ast.FuncDecl); ok {
						break
					}
				}
				t.Errorf("%s: %s outside its guard's branch", fset.Position(call.Pos()), sel.Sel.Name)
				return true
			})
		}
		if calls == 0 {
			t.Errorf("%s: no Read, SCASInsert or SCASRemove call found; the lint checks nothing", dir)
		}
	}
}

// containsCall reports whether n contains a call whose function is a
// selector match accepts.
func containsCall(n ast.Node, match func(*ast.SelectorExpr) bool) bool {
	found := false
	ast.Inspect(n, func(n ast.Node) bool {
		if call, ok := n.(*ast.CallExpr); ok {
			if sel, ok := call.Fun.(*ast.SelectorExpr); ok && match(sel) {
				found = true
			}
		}
		return !found
	})
	return found
}

// isMethodCall reports whether e is a call x.name() with no arguments.
func isMethodCall(e ast.Expr, name string) bool {
	call, ok := e.(*ast.CallExpr)
	if !ok || len(call.Args) != 0 {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
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
