package cucc

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

// The documents whose inline code spans must name only what exists.
var checkedDocs = []string{"DESIGN.md", "README.md", "PAPER.md"}

var (
	codeSpan = regexp.MustCompile("`([^`]+)`")
	// A test, benchmark or fuzz target, optionally a prefix (`TestX*`) or
	// a subtest path (`TestX/row`).
	testName = regexp.MustCompile(`^((?:Test|Benchmark|Fuzz)[A-Z0-9_]\w*)(\*|/.*)?$`)
	// pkg.Ident with an exported Ident, then any selectors.  A lower-case
	// second segment is a metric name (`core.blocks.vm`), not Go.
	pkgIdent = regexp.MustCompile(`^([a-z][a-z0-9]*)\.([A-Z]\w*)((?:\.\w+)*)$`)
	// An exported name, or one with selectors (`Session.Host.Workers`).
	// It needs a lower-case letter and no underscore, so acronyms (`SIMD`),
	// math (`W`) and C APIs (`MPI_Recv`) are prose.
	goName = regexp.MustCompile(`^[A-Z][[:alnum:]]*[a-z][[:alnum:]]*(\.\w+)*$`)
	// A Makefile rule's target.
	makeRule = regexp.MustCompile(`(?m)^([\w.-]+):`)
)

// repoIndex is what the docs may name: every Go file, the declarations of
// every internal package, every declared or member name, every test, and
// every Makefile target.
type repoIndex struct {
	files   []string                   // slash paths from the repository root
	pkgs    map[string]map[string]bool // internal package -> its functions, methods, types, vars, consts
	names   map[string]bool            // declarations, methods, fields anywhere
	tests   map[string]bool            // Test*, Benchmark* and Fuzz* functions
	targets map[string]bool
}

func indexRepo(t *testing.T) *repoIndex {
	t.Helper()
	idx := &repoIndex{pkgs: map[string]map[string]bool{}, names: map[string]bool{},
		tests: map[string]bool{}, targets: map[string]bool{}}
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") {
			return nil
		}
		path = filepath.ToSlash(path)
		idx.files = append(idx.files, path)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		var top map[string]bool
		if strings.HasPrefix(path, "internal/") {
			pkg := strings.TrimSuffix(f.Name.Name, "_test")
			if top = idx.pkgs[pkg]; top == nil {
				top = map[string]bool{}
				idx.pkgs[pkg] = top
			}
		}
		idx.indexFile(f, top, strings.HasSuffix(path, "_test.go"))
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range makeRule.FindAllStringSubmatch(string(mk), -1) {
		idx.targets[m[1]] = true
	}
	return idx
}

// indexFile records f's names: its declarations also in top (nil outside
// internal/), methods included, since the docs write `cluster.RunParallel`
// for a method of cluster.Cluster; and test functions when f is a test
// file.
func (idx *repoIndex) indexFile(f *ast.File, top map[string]bool, isTest bool) {
	declare := func(name string) {
		idx.names[name] = true
		if top != nil {
			top[name] = true
		}
	}
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			declare(d.Name.Name)
			if isTest && d.Recv == nil && testName.MatchString(d.Name.Name) {
				idx.tests[d.Name.Name] = true
			}
		case *ast.GenDecl:
			for _, s := range d.Specs {
				switch s := s.(type) {
				case *ast.TypeSpec:
					declare(s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						declare(n.Name)
					}
				}
			}
		}
	}
	// Struct fields and interface methods, wherever the type is declared.
	ast.Inspect(f, func(n ast.Node) bool {
		if fl, ok := n.(*ast.FieldList); ok {
			for _, fld := range fl.List {
				for _, name := range fld.Names {
					idx.names[name.Name] = true
				}
			}
		}
		return true
	})
}

// unresolved says why span names nothing in the repository, or "" when it
// resolves (or is not a name the check covers).
func (idx *repoIndex) unresolved(span string) string {
	s := strings.TrimSuffix(span, "()")
	if rest, ok := strings.CutPrefix(s, "make "); ok {
		for _, tgt := range strings.Fields(rest) {
			if !strings.HasPrefix(tgt, "-") && !strings.Contains(tgt, "=") && !idx.targets[tgt] {
				return "names no Makefile target " + tgt
			}
		}
		return ""
	}
	if strings.HasSuffix(s, ".go") && !strings.ContainsAny(s, " *") {
		for _, f := range idx.files {
			if f == s || strings.HasSuffix(f, "/"+s) {
				return ""
			}
		}
		return "names no Go file"
	}
	if m := testName.FindStringSubmatch(s); m != nil {
		if m[2] == "*" {
			for name := range idx.tests {
				if strings.HasPrefix(name, m[1]) {
					return ""
				}
			}
		} else if idx.tests[m[1]] {
			return ""
		}
		return "names no test, benchmark or fuzz target"
	}
	if m := pkgIdent.FindStringSubmatch(s); m != nil && idx.pkgs[m[1]] != nil {
		if !idx.pkgs[m[1]][m[2]] {
			return "names nothing declared in package " + m[1]
		}
		return idx.unresolvedMembers(m[3])
	}
	if goName.MatchString(s) {
		return idx.unresolvedMembers("." + s)
	}
	return ""
}

// unresolvedMembers checks each ".name" of sel against the declared names.
func (idx *repoIndex) unresolvedMembers(sel string) string {
	for _, name := range strings.Split(sel, ".")[1:] {
		if !idx.names[name] {
			return "names nothing declared as " + name
		}
	}
	return ""
}

// TestDocsNameOnlyWhatExists resolves every inline code span of the design
// documents that looks like a Go name, a test, a Go file or a make target
// against the repository, so a rename or deletion cannot leave the docs
// pointing at something gone.  Fenced code blocks are examples, not
// references, and are skipped.
func TestDocsNameOnlyWhatExists(t *testing.T) {
	idx := indexRepo(t)
	for _, doc := range checkedDocs {
		data, err := os.ReadFile(doc)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(data), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			if fenced {
				continue
			}
			for _, m := range codeSpan.FindAllStringSubmatch(line, -1) {
				if why := idx.unresolved(m[1]); why != "" {
					t.Errorf("%s:%d: `%s` %s", doc, i+1, m[1], why)
				}
			}
		}
	}
}

// TestAblationBenchesExist resolves the Bench column of EXPERIMENTS.md's
// "Ablations" table: each row names the test or benchmark that reproduces
// its result, so every name there must exist.  The rest of EXPERIMENTS.md
// narrates history and may name what is gone.
func TestAblationBenchesExist(t *testing.T) {
	idx := indexRepo(t)
	data, err := os.ReadFile("EXPERIMENTS.md")
	if err != nil {
		t.Fatal(err)
	}
	rows := 0
	inTable := false
	for i, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "## ") {
			inTable = strings.HasPrefix(line, "## Ablations")
			continue
		}
		if !inTable || !strings.HasPrefix(line, "|") {
			continue
		}
		cells := strings.Split(strings.Trim(line, "| "), "|")
		for _, m := range codeSpan.FindAllStringSubmatch(cells[len(cells)-1], -1) {
			rows++
			if !testName.MatchString(m[1]) {
				t.Errorf("EXPERIMENTS.md:%d: `%s` is not a test or benchmark name", i+1, m[1])
			} else if why := idx.unresolved(m[1]); why != "" {
				t.Errorf("EXPERIMENTS.md:%d: `%s` %s", i+1, m[1], why)
			}
		}
	}
	if rows == 0 {
		t.Error("EXPERIMENTS.md has no Ablations table with a Bench column")
	}
}
