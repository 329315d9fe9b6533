package shadowblock

// A guard on the internal API: every exported identifier declared in
// non-test code under internal/ must be used by some non-test code, so
// API kept alive only for tests does not accumulate. The scan is by name
// (go/parser and go/ast, no type checking): a declaration counts as used
// when any non-test file under internal/, cmd/, examples/, benchmark/ or
// the repository root mentions its name anywhere but in the declaration
// itself. Helpers only a package's tests need go in that package's
// export_test.go, as internal/oram does.

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyExports are the exported names the guard accepts without a
// non-test user. Keep it to at most three.
var testOnlyExports = map[string]bool{
	// Both engines' structural walk over tree, stash and position map.
	// Tests call it after accesses; the request path never pays for it.
	"CheckInvariants": true,
	// The decoupled writeback scheduler's queue and retirement
	// accounting, checked by tests for the same reason.
	"CheckWritebackInvariants": true,
}

// unusedExports lists, as "file:line: name", every exported top-level
// identifier or method declared in a non-test file under root/internal
// that no non-test file in the scanned trees references, minus allow.
func unusedExports(root string, allow map[string]bool) ([]string, error) {
	fset := token.NewFileSet()
	type decl struct {
		name string
		pos  token.Pos
	}
	var decls []decl
	declPos := map[token.Pos]bool{}
	used := map[string]bool{}

	addDecl := func(id *ast.Ident) {
		if id.IsExported() {
			decls = append(decls, decl{id.Name, id.Pos()})
			declPos[id.Pos()] = true
		}
	}
	parse := func(path string, declares bool) error {
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if declares {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					addDecl(d.Name)
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							addDecl(s.Name)
						case *ast.ValueSpec:
							for _, n := range s.Names {
								addDecl(n)
							}
						}
					}
				}
			}
		}
		// Every other identifier in the file is a use.
		ast.Inspect(f, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declPos[id.Pos()] {
				used[id.Name] = true
			}
			return true
		})
		return nil
	}
	isSource := func(name string) bool {
		return strings.HasSuffix(name, ".go") && !strings.HasSuffix(name, "_test.go")
	}

	// The root package: its own directory only, not the trees below it.
	top, err := os.ReadDir(root)
	if err != nil {
		return nil, err
	}
	for _, e := range top {
		if !e.IsDir() && isSource(e.Name()) {
			if err := parse(filepath.Join(root, e.Name()), false); err != nil {
				return nil, err
			}
		}
	}
	for _, dir := range []string{"internal", "cmd", "examples", "benchmark"} {
		base := filepath.Join(root, dir)
		if _, err := os.Stat(base); os.IsNotExist(err) {
			continue
		}
		err := filepath.WalkDir(base, func(path string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				// The go tool ignores these directories too.
				if n := d.Name(); path != base && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
					return filepath.SkipDir
				}
				return nil
			}
			if !isSource(d.Name()) {
				return nil
			}
			return parse(path, dir == "internal")
		})
		if err != nil {
			return nil, err
		}
	}

	var out []string
	for _, d := range decls {
		if used[d.name] || allow[d.name] {
			continue
		}
		p := fset.Position(d.pos)
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, d.name))
	}
	sort.Strings(out)
	return out, nil
}

func TestNoTestOnlyExports(t *testing.T) {
	if len(testOnlyExports) > 3 {
		t.Fatalf("allowlist holds %d names; at most three test hooks may stay exported without a user", len(testOnlyExports))
	}
	unused, err := unusedExports(".", testOnlyExports)
	if err != nil {
		t.Fatal(err)
	}
	for _, u := range unused {
		t.Errorf("%s is exported but no non-test code uses it: delete it, unexport it, or move it into its package's export_test.go", u)
	}
}

// The guard must see an unused export: plant one in a scratch tree, next
// to one that cmd/ uses and one that only a test mentions.
func TestUnusedExportsFindsPlantedExport(t *testing.T) {
	root := t.TempDir()
	write := func(rel, src string) {
		p := filepath.Join(root, rel)
		if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(p, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("go.mod", "module fixture\n")
	write("internal/lib/lib.go", `package lib

type T struct{}

// Used has a caller in cmd/.
func Used() T { return T{} }

// Hook is allowlisted.
func (T) Hook() {}

// Planted is called only from a test.
func (T) Planted() int { return 1 }
`)
	write("internal/lib/lib_test.go", `package lib

import "testing"

func TestPlanted(t *testing.T) { _ = Used().Planted() }
`)
	write("cmd/tool/main.go", `package main

import "fixture/internal/lib"

func main() { lib.Used() }
`)
	got, err := unusedExports(root, map[string]bool{"Hook": true})
	if err != nil {
		t.Fatal(err)
	}
	want := "internal/lib/lib.go:12: Planted"
	if len(got) != 1 || got[0] != want {
		t.Fatalf("unusedExports = %q, want [%q]", got, want)
	}
}
