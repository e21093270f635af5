package repro_test

// Docs-freshness checks. Every exported symbol in compose.go must carry
// a doc comment, and every repository path the documentation names must
// exist. CI runs this file, so an undocumented addition to the facade or
// a pointer to a deleted file fails the build rather than silently aging
// the documentation layer.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

func TestExportedSymbolsDocumented(t *testing.T) {
	const file = "compose.go"
	fset := token.NewFileSet()
	f, err := parser.ParseFile(fset, file, nil, parser.ParseComments)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	check := func(name string, doc *ast.CommentGroup, pos token.Pos) {
		if !ast.IsExported(name) {
			return
		}
		if doc == nil || strings.TrimSpace(doc.Text()) == "" {
			p := fset.Position(pos)
			t.Errorf("%s:%d: exported symbol %s has no doc comment", p.Filename, p.Line, name)
		}
	}
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Methods count too: a method declared in the facade is
			// API surface just like a top-level function.
			check(d.Name.Name, d.Doc, d.Pos())
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					doc := s.Doc
					if doc == nil {
						doc = d.Doc
					}
					check(s.Name.Name, doc, s.Pos())
				case *ast.ValueSpec:
					doc := s.Doc
					if doc == nil {
						doc = d.Doc
					}
					for _, n := range s.Names {
						check(n.Name, doc, s.Pos())
					}
				}
			}
		}
	}
}

// docRef matches the repository paths prose names: a cmd/ or internal/
// path, a BENCH*.json file, or a .md file with an optional directory.
var docRef = regexp.MustCompile(`\b(?:cmd|internal)/[a-z0-9_]+(?:/[A-Za-z0-9_.]+)*` +
	`|\bBENCH[A-Za-z_]*\.json\b` +
	`|(?:[.a-z][a-z0-9_./]*/)?\b[A-Za-z][A-Za-z_]*\.md\b`)

// missingRefs returns the paths text names that exist neither from the
// repository root nor (for a bare file name) in dir, the directory of
// the file the text came from.
func missingRefs(dir, text string) []string {
	var missing []string
	for _, ref := range docRef.FindAllString(text, -1) {
		ref = strings.TrimRight(ref, ".")
		if _, err := os.Stat(ref); err == nil {
			continue
		}
		if !strings.Contains(ref, "/") {
			if _, err := os.Stat(filepath.Join(dir, ref)); err == nil {
				continue
			}
		}
		missing = append(missing, ref)
	}
	return missing
}

// TestDocReferencesExist keeps the documentation pointing at things
// that are in the tree: every cmd/ and internal/ path, BENCH*.json and
// .md file the living documents name, and every .md file a Go comment
// names, must exist. CHANGES.md, ROADMAP.md and the issue file of the
// change in progress are history — they name what was deleted — and are
// not scanned.
func TestDocReferencesExist(t *testing.T) {
	docs := []string{"ARCHITECTURE.md", "cmd/README.md", "hypotheses/README.md", ".claude/skills/verify/SKILL.md"}
	more, err := filepath.Glob("docs/*.md")
	if err != nil || len(more) == 0 {
		t.Fatalf("docs/*.md: %v, %v", more, err)
	}
	for _, doc := range append(docs, more...) {
		text, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		for _, ref := range missingRefs(filepath.Dir(doc), string(text)) {
			t.Errorf("%s names %s, which does not exist", doc, ref)
		}
	}

	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() && (d.Name() == ".git" || d.Name() == ".bench_build") {
			return filepath.SkipDir
		}
		if d.IsDir() || !strings.HasSuffix(path, ".go") {
			return nil
		}
		f, err := parser.ParseFile(token.NewFileSet(), path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		for _, c := range f.Comments {
			for _, ref := range missingRefs(filepath.Dir(path), c.Text()) {
				if strings.HasSuffix(ref, ".md") {
					t.Errorf("%s: comment names %s, which does not exist", path, ref)
				}
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

// TestMissingRefsFindsStaleNames: the finder must report each kind of
// name it is there to catch, and nothing that exists.
func TestMissingRefsFindsStaleNames(t *testing.T) {
	text := "see DESIGN.md §2 and ARCHITECTURE.md; cmd/kvload, cmd/nosuchtool -x, " +
		"internal/kcas/pair.go. internal/harness/nosuch.go, BENCHMARK.json, BENCH_nosuch.json, docs/nosuch.md."
	got := missingRefs(".", text)
	want := []string{"DESIGN.md", "cmd/nosuchtool", "internal/harness/nosuch.go", "BENCH_nosuch.json", "docs/nosuch.md"}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("missingRefs = %q, want %q", got, want)
	}
}
