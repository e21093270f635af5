package repro_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"maps"
	"os"
	"path/filepath"
	"slices"
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
// msqueue, tstack, harrislist and pqueue a Read call must sit in the
// then-branch of an if whose condition tests word.IsDesc (the word holds
// a descriptor), and an SCASInsert or SCASRemove call in the
// then-branch of an if on t.MoveInFlight() or the else-branch of one on
// !t.MoveInFlight(). Everywhere else the containers run the plain case
// themselves: a load and a plain CAS. The plain branch of an if on
// !t.MoveInFlight() must count its lost CAS as the scas it stands in
// for would: each `if !<word>.CAS(...)` there calls LostCAS exactly
// once in its body, and no other code in these packages calls it. A
// CAS of a shared word is a linearization point, which a composition
// must capture through scas, so every .CAS( call sits in that plain
// branch too, except the CASes casAllowed names. An entry of casAllowed
// that matches no call fails the lint.
func TestSharedReadsGuarded(t *testing.T) {
	unused := maps.Clone(casAllowed)
	for _, dir := range []string{"internal/msqueue", "internal/tstack", "internal/harrislist", "internal/pqueue"} {
		files, err := filepath.Glob(filepath.Join(dir, "*.go"))
		if err != nil {
			t.Fatal(err)
		}
		calls := 0
		counted := map[token.Pos]bool{} // the LostCAS calls in plain-path CAS failure bodies
		for _, path := range files {
			if strings.HasSuffix(path, "_test.go") {
				continue
			}
			src, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			fset := token.NewFileSet()
			f, err := parser.ParseFile(fset, path, src, 0)
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
					if not, ok := ifs.Cond.(*ast.UnaryExpr); ok && not.Op == token.NOT && isMethodCall(not.X, "MoveInFlight") {
						sites := 0
						ast.Inspect(ifs.Body, func(n ast.Node) bool {
							cas, ok := n.(*ast.IfStmt)
							if !ok {
								return true
							}
							if not, ok := cas.Cond.(*ast.UnaryExpr); !ok || not.Op != token.NOT || !isCall(not.X, "CAS") {
								return true
							}
							sites++
							lost := callsTo(cas.Body, "LostCAS")
							if len(lost) != 1 {
								t.Errorf("%s: a lost plain-path CAS calls LostCAS %d times, want once", fset.Position(cas.Pos()), len(lost))
							}
							for _, c := range lost {
								counted[c.Pos()] = true
							}
							return true
						})
						if sites == 0 {
							t.Errorf("%s: plain-path branch has no `if !<word>.CAS(...)`", fset.Position(ifs.Pos()))
						}
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
				case "CAS":
					plain := func(cond ast.Expr, then bool) bool {
						not, ok := cond.(*ast.UnaryExpr)
						return then && ok && not.Op == token.NOT && isMethodCall(not.X, "MoveInFlight")
					}
					if within(stack, plain) {
						return true
					}
					fn := "?"
					for _, n := range stack {
						if d, ok := n.(*ast.FuncDecl); ok {
							fn = d.Name.Name
						}
					}
					key := dir + " " + fn + " " + string(src[fset.Position(call.Pos()).Offset:fset.Position(call.End()).Offset])
					if _, ok := casAllowed[key]; !ok {
						t.Errorf("%s: %s: a CAS of a shared word outside the plain branch of !t.MoveInFlight(), and not in casAllowed", fset.Position(call.Pos()), key)
					}
					delete(unused, key)
					return true
				case "LostCAS":
					if !counted[call.Pos()] {
						t.Errorf("%s: LostCAS outside a lost plain-path CAS's body", fset.Position(call.Pos()))
					}
					return true
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
				if !within(stack, guarded) {
					t.Errorf("%s: %s outside its guard's branch", fset.Position(call.Pos()), sel.Sel.Name)
				}
				return true
			})
		}
		if calls == 0 {
			t.Errorf("%s: no Read, SCASInsert or SCASRemove call found; the lint checks nothing", dir)
		}
	}
	for key := range unused {
		t.Errorf("allow-listed CAS %q no longer exists: drop it from casAllowed", key)
	}
}

// casAllowed lists the CASes of a shared word in msqueue, tstack,
// harrislist and pqueue that are no linearization point, so a
// composition does not capture them and they run outside the plain
// branch; each is keyed by its package directory, function and call,
// with the reason.
var casAllowed = map[string]string{
	"internal/msqueue Enqueue t.CAS(&q.tail, ltail, lnext)":            "Q12: swings a lagging tail before the enqueue retries",
	"internal/msqueue Enqueue t.CAS(&q.tail, ltail, ref)":              "Q18–Q19: swings the tail to the node the enqueue linked",
	"internal/msqueue Dequeue t.CAS(&q.tail, ltail, lnext)":            "Q31: swings a lagging tail before the dequeue retries",
	"internal/harrislist search prevW.CAS(cur, next)":                  "unlinks a node a remove already marked",
	"internal/harrislist RemoveAt r.prevW.CAS(r.cur, r.next)":          "unlinks the node this remove marked",
	"internal/harrislist LinkAt r.prevW.CAS(r.cur, ref)":               "links a map's sentinel, a node no operation removes",
	"internal/pqueue RemoveMin p.head.CAS(head, word.ListMarked(cur))": "swings the head past nodes RemoveMins already deleted",
}

// within reports whether the innermost function of the inspection path
// stack holds its last node in the branch of an if whose condition
// guarded accepts: the then-branch when then is true, the else-branch
// otherwise.
func within(stack []ast.Node, guarded func(cond ast.Expr, then bool) bool) bool {
	for i := len(stack) - 2; i >= 0; i-- {
		if ifs, ok := stack[i].(*ast.IfStmt); ok {
			child := stack[i+1]
			if (child == ifs.Body || child == ifs.Else) && guarded(ifs.Cond, child == ifs.Body) {
				return true
			}
		}
		if _, ok := stack[i].(*ast.FuncDecl); ok {
			return false
		}
	}
	return false
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

// callsTo returns the calls in n whose function is a selector x.name.
func callsTo(n ast.Node, name string) []*ast.CallExpr {
	var calls []*ast.CallExpr
	ast.Inspect(n, func(n ast.Node) bool {
		if isCall(n, name) {
			calls = append(calls, n.(*ast.CallExpr))
		}
		return true
	})
	return calls
}

// isCall reports whether n is a call x.name(...).
func isCall(n ast.Node, name string) bool {
	call, ok := n.(*ast.CallExpr)
	if !ok {
		return false
	}
	sel, ok := call.Fun.(*ast.SelectorExpr)
	return ok && sel.Sel.Name == name
}

// isMethodCall reports whether e is a call x.name() with no arguments.
func isMethodCall(e ast.Expr, name string) bool {
	return isCall(e, name) && len(e.(*ast.CallExpr).Args) == 0
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

// requestPath names kvserver's request-path functions, which read time
// only through the server's obs.Clock.
var requestPath = []string{"Serve", "handle", "exec", "apply", "finishSpan"}

// TestRequestPathOneClock keeps kvserver's request path on one time
// base: none of the requestPath functions in cmd/kvserver/server.go
// calls time.Now, time.Since or time.Until, or a method named Sub (the
// lint reads syntax, not types, so it takes every Sub for Time.Sub).
// Each stage boundary is one obs.Clock stamp, a monotonic read; the
// write deadline in connWriter stays on the wall clock.
func TestRequestPathOneClock(t *testing.T) {
	const path = "cmd/kvserver/server.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, path, nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for _, d := range f.Decls {
		fn, ok := d.(*ast.FuncDecl)
		if !ok || !slices.Contains(requestPath, fn.Name.Name) {
			continue
		}
		seen[fn.Name.Name] = true
		ast.Inspect(fn.Body, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok {
				return true
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			pkg, _ := sel.X.(*ast.Ident)
			if sel.Sel.Name == "Sub" || pkg != nil && pkg.Name == "time" && slices.Contains([]string{"Now", "Since", "Until"}, sel.Sel.Name) {
				t.Errorf("%s: %s reads time outside the server's obs.Clock", fset.Position(call.Pos()), fn.Name.Name)
			}
			return true
		})
	}
	for _, name := range requestPath {
		if !seen[name] {
			t.Errorf("%s defines no func %s", path, name)
		}
	}
}
