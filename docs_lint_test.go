package repro_test

// Docs-freshness checks. Every exported symbol in compose.go must carry
// a doc comment, every repository path the documentation names must
// exist, and cmd/README.md documents exactly the flags each binary
// defines. CI runs this file, so an undocumented addition to the facade,
// a pointer to a deleted file or a flag added or removed without its
// documentation fails the build rather than silently aging the
// documentation layer.

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strconv"
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

// flagKinds are the flag package's defining functions with any "Var"
// suffix cut off ("" is flag.Var itself).
var flagKinds = []string{"", "Bool", "BoolFunc", "Duration", "Float64", "Func",
	"Int", "Int64", "String", "Text", "Uint", "Uint64"}

// definedFlags returns the flag names a main.go defines: the first
// argument of flag.<Type>(name, …), the second of
// flag.<Type>Var(p, name, …) and flag.Var(value, name, …).
func definedFlags(t *testing.T, file string) []string {
	t.Helper()
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, 0)
	if err != nil {
		t.Fatalf("parse %s: %v", file, err)
	}
	var names []string
	ast.Inspect(f, func(n ast.Node) bool {
		call, ok := n.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok {
			return true
		}
		if pkg, ok := sel.X.(*ast.Ident); !ok || pkg.Name != "flag" {
			return true
		}
		fn, arg := sel.Sel.Name, 0
		if base, isVar := strings.CutSuffix(fn, "Var"); isVar {
			fn, arg = base, 1
		}
		if !slices.Contains(flagKinds, fn) || len(call.Args) <= arg {
			return true
		}
		lit, ok := call.Args[arg].(*ast.BasicLit)
		if !ok || lit.Kind != token.STRING {
			t.Errorf("%s: flag.%s names its flag with a non-literal", file, sel.Sel.Name)
			return true
		}
		name, err := strconv.Unquote(lit.Value)
		if err != nil {
			t.Fatalf("%s: %v", file, err)
		}
		names = append(names, name)
		return true
	})
	return names
}

// fencedBlock matches a fenced code block; codeSpan a backtick span
// (which may wrap a line); flagSpan the flag name that opens one.
var (
	fencedBlock = regexp.MustCompile("(?ms)^```.*?^```")
	codeSpan    = regexp.MustCompile("`([^`]+)`")
	flagSpan    = regexp.MustCompile(`^-([A-Za-z][\w-]*)`)
)

// namedFlags returns the flag names that open a backtick span in
// markdown text, fenced code blocks left out.
func namedFlags(text string) []string {
	var names []string
	for _, m := range codeSpan.FindAllStringSubmatch(fencedBlock.ReplaceAllString(text, ""), -1) {
		if f := flagSpan.FindStringSubmatch(m[1]); f != nil {
			names = append(names, f[1])
		}
	}
	return names
}

// readmeSections splits markdown into its "## name" sections.
func readmeSections(text string) map[string]string {
	sections := map[string]string{}
	for _, part := range strings.Split("\n"+text, "\n## ")[1:] {
		name, body, _ := strings.Cut(part, "\n")
		sections[strings.TrimSpace(name)] = body
	}
	return sections
}

// TestFlagsDocumented: for each binary under cmd/, every flag its
// main.go defines is named as `-name` in the binary's "## <binary>"
// section of cmd/README.md, and every `-name` that opens a backtick span
// there is one of that binary's flags. A flag added without its
// documentation, or deleted with its documentation left behind, fails.
func TestFlagsDocumented(t *testing.T) {
	readme, err := os.ReadFile("cmd/README.md")
	if err != nil {
		t.Fatal(err)
	}
	sections := readmeSections(string(readme))
	mains, err := filepath.Glob("cmd/*/main.go")
	if err != nil || len(mains) == 0 {
		t.Fatalf("cmd/*/main.go: %v, %v", mains, err)
	}
	for _, main := range mains {
		bin := filepath.Base(filepath.Dir(main))
		section, ok := sections[bin]
		if !ok {
			t.Errorf("cmd/README.md has no \"## %s\" section", bin)
			continue
		}
		flags, named := definedFlags(t, main), namedFlags(section)
		for _, f := range flags {
			if !slices.Contains(named, f) {
				t.Errorf("%s defines -%s; the \"## %s\" section of cmd/README.md never names `-%s`", main, f, bin, f)
			}
		}
		for _, f := range named {
			if !slices.Contains(flags, f) {
				t.Errorf("the \"## %s\" section of cmd/README.md names `-%s`, which %s does not define", bin, f, main)
			}
		}
	}
}

// TestFlagSpansParse: the flag scanner reads names from the forms the
// README uses, and the flag finder reads both definition forms.
func TestFlagSpansParse(t *testing.T) {
	section := "Key flags: `-addr`, `-metrics=false`, `-fault 'kcas-commit:stall=2ms'`,\n" +
		"`-slow N`, `go test -bench\nX`.\n\n```sh\nkvserver -nosuch\n```\n"
	if got, want := strings.Join(namedFlags(section), " "), "addr metrics fault slow"; got != want {
		t.Fatalf("named flags = %q, want %q", got, want)
	}
	if got, want := strings.Join(definedFlags(t, "cmd/tracecheck/main.go"), " "), "chrome slowest require"; got != want {
		t.Fatalf("tracecheck flags = %q, want %q", got, want)
	}
}
