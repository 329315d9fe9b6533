package shadowblock

// A guard on the internal API: every exported function, method, type,
// variable, constant and struct field declared in non-test code under
// internal/ must be used by some non-test code of the root or the
// benchmark module, so API kept alive only for tests does not accumulate.
// The scan is type-aware (go/parser and go/types over every non-test file,
// the standard library type-checked from source): a declaration is used
// when a non-test file refers to its object — a types.Info.Uses or
// Selections hit — so a method promoted through an embedded field counts
// for the method it promotes, and a use of one name counts for no other
// declaration of that name. An interface method counts as used only
// through a call on the interface; a concrete method counts as used when
// an interface method it implements does, and always when it implements a
// standard-library interface, whose callers the scan cannot see.
// JSON-tagged struct fields are exempt: encoding/json reads them. Helpers
// only a package's tests need go in that package's export_test.go, as
// internal/oram does.

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"reflect"
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
	// The externally-visible-operation callback the security tests
	// compare traces through; no production code observes an engine yet.
	"SetObserver": true,
}

// srcPackage is one package of the scanned modules: its non-test files,
// and once type-checked, its types and their use information.
type srcPackage struct {
	path, dir string
	files     []*ast.File
	pkg       *types.Package
	info      *types.Info
	checking  bool
}

// loader type-checks the scanned modules' packages, in import order, and
// the standard library from source.
type loader struct {
	fset    *token.FileSet
	mods    map[string]string // module path -> directory
	pkgs    map[string]*srcPackage
	std     types.Importer
	stdUsed map[*types.Package]bool // standard-library packages the modules import
}

// modulePath reads the module path from dir/go.mod ("" when there is none).
func modulePath(dir string) (string, error) {
	f, err := os.Open(filepath.Join(dir, "go.mod"))
	if os.IsNotExist(err) {
		return "", nil
	}
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	return "", fmt.Errorf("%s/go.mod names no module", dir)
}

// load parses every non-test package under root, a module whose nested
// modules (a directory with its own go.mod, such as benchmark/) are
// scanned as modules of their own.
func load(root string) (*loader, error) {
	l := &loader{fset: token.NewFileSet(), mods: map[string]string{}, pkgs: map[string]*srcPackage{},
		stdUsed: map[*types.Package]bool{}}
	l.std = importer.ForCompiler(l.fset, "source", nil)
	var modDirs []string // module directories, deepest last
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		// The go tool ignores these directories too.
		if n := d.Name(); path != root && (n == "testdata" || strings.HasPrefix(n, ".") || strings.HasPrefix(n, "_")) {
			return filepath.SkipDir
		}
		mod, err := modulePath(path)
		if err != nil {
			return err
		}
		if mod != "" {
			l.mods[mod] = path
			modDirs = append(modDirs, path)
		}
		return l.parseDir(path, modDirs)
	})
	return l, err
}

// parseDir parses the non-test files of dir, if any, as one package of the
// innermost module in modDirs containing it.
func (l *loader) parseDir(dir string, modDirs []string) error {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	var files []*ast.File
	for _, e := range entries {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			if err != nil {
				return err
			}
			continue
		}
		f, err := parser.ParseFile(l.fset, filepath.Join(dir, name), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, f)
	}
	if len(files) == 0 {
		return nil
	}
	modDir := ""
	for _, m := range modDirs {
		if (dir == m || strings.HasPrefix(dir, m+string(filepath.Separator))) && len(m) > len(modDir) {
			modDir = m
		}
	}
	for mod, d := range l.mods {
		if d == modDir {
			rel, err := filepath.Rel(modDir, dir)
			if err != nil {
				return err
			}
			path := mod
			if rel != "." {
				path += "/" + filepath.ToSlash(rel)
			}
			l.pkgs[path] = &srcPackage{path: path, dir: dir, files: files}
			return nil
		}
	}
	return fmt.Errorf("%s lies in no module", dir)
}

// Import resolves an import: a scanned package is type-checked (once),
// anything else comes from the standard library.
func (l *loader) Import(path string) (*types.Package, error) {
	if p, ok := l.pkgs[path]; ok {
		return l.check(p)
	}
	pkg, err := l.std.Import(path)
	if err == nil {
		l.stdUsed[pkg] = true
	}
	return pkg, err
}

func (l *loader) check(p *srcPackage) (*types.Package, error) {
	if p.pkg != nil {
		return p.pkg, nil
	}
	if p.checking {
		return nil, fmt.Errorf("import cycle through %s", p.path)
	}
	p.checking = true
	p.info = &types.Info{
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: l}
	pkg, err := conf.Check(p.path, l.fset, p.files, p.info)
	if err != nil {
		return nil, fmt.Errorf("type-checking %s: %w", p.path, err)
	}
	p.pkg = pkg
	return pkg, nil
}

// origin maps an instantiated generic method or field to its declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// unusedExports lists, as "file:line: name" (Type.Name for a method or a
// field), every exported declaration in a non-test file under root/internal
// that no non-test file of the scanned modules uses, minus allow.
func unusedExports(root string, allow map[string]bool) ([]string, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l, err := load(root)
	if err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.check(l.pkgs[path]); err != nil {
			return nil, err
		}
	}

	// Uses, the interface methods called through their interface, and the
	// embedded fields a promoted selection passes through.
	used := map[types.Object]bool{}
	called := map[*types.Interface][]string{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, sel := range p.info.Selections {
			t := sel.Recv()
			for _, i := range sel.Index()[:len(sel.Index())-1] {
				if ptr, ok := t.Underlying().(*types.Pointer); ok {
					t = ptr.Elem()
				}
				f := t.Underlying().(*types.Struct).Field(i)
				used[origin(f)] = true
				t = f.Type()
			}
			if fn, ok := sel.Obj().(*types.Func); ok {
				if iface, ok := fn.Type().(*types.Signature).Recv().Type().Underlying().(*types.Interface); ok {
					called[iface] = append(called[iface], fn.Name())
				}
			}
		}
	}
	// The standard library calls every method of its own interfaces.
	for pkg := range l.stdUsed {
		for _, name := range pkg.Scope().Names() {
			if tn, ok := pkg.Scope().Lookup(name).(*types.TypeName); ok && tn.Exported() {
				if iface, ok := tn.Type().Underlying().(*types.Interface); ok {
					for i := 0; i < iface.NumMethods(); i++ {
						called[iface] = append(called[iface], iface.Method(i).Name())
					}
				}
			}
		}
	}
	called[types.Universe.Lookup("error").Type().Underlying().(*types.Interface)] = []string{"Error"}
	// An implementation is used when the interface method it implements
	// is, looked up in the implementing type's method set, so a method
	// promoted from an embedded field counts.
	for _, p := range l.pkgs {
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			tn, ok := scope.Lookup(name).(*types.TypeName)
			if !ok || tn.IsAlias() || types.IsInterface(tn.Type()) {
				continue
			}
			ptr := types.NewPointer(tn.Type()) // its method set holds T's too
			ms := types.NewMethodSet(ptr)
			for iface, names := range called {
				if !types.Implements(ptr, iface) {
					continue
				}
				for _, n := range names {
					if sel := ms.Lookup(nil, n); sel != nil {
						used[origin(sel.Obj())] = true
					}
				}
			}
		}
	}

	var out []string
	report := func(obj types.Object, name string) {
		if allow[obj.Name()] || used[obj] {
			return
		}
		p := l.fset.Position(obj.Pos())
		rel, err := filepath.Rel(root, p.Filename)
		if err != nil {
			rel = p.Filename
		}
		out = append(out, fmt.Sprintf("%s:%d: %s", filepath.ToSlash(rel), p.Line, name))
	}
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	for _, path := range paths {
		p := l.pkgs[path]
		if !strings.HasPrefix(p.dir+string(filepath.Separator), internal) {
			continue
		}
		scope := p.pkg.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			if obj.Exported() {
				report(obj, name)
			}
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			switch u := named.Underlying().(type) {
			case *types.Interface:
				for i := 0; i < u.NumExplicitMethods(); i++ {
					if m := u.ExplicitMethod(i); m.Exported() {
						report(m, name+"."+m.Name())
					}
				}
			case *types.Struct:
				for i := 0; i < u.NumFields(); i++ {
					f := u.Field(i)
					if _, json := reflect.StructTag(u.Tag(i)).Lookup("json"); f.Exported() && !json {
						report(f, name+"."+f.Name())
					}
				}
			}
			if _, ok := named.Underlying().(*types.Interface); ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); m.Exported() {
					report(m, name+"."+m.Name())
				}
			}
		}
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

// The guard must see an unused export: plant some in a scratch module,
// next to declarations cmd/ uses and one only a test mentions. U.Used
// shares its name with the function cmd/ calls, and Speaker.Speak and
// Dog.Speak only with an interface nothing calls through.
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

// U.Used is called nowhere; only its name is.
type U struct{}

func (U) Used() {}

type Speaker interface{ Speak() }

type Dog struct{ Name string }

func (Dog) Speak() {}

// Walker.Walk is called through the interface, so Cat.Walk is used.
type Walker interface{ Walk() }

type Cat struct{}

func (Cat) Walk() {}
`)
	write("internal/lib/lib_test.go", `package lib

import "testing"

func TestPlanted(t *testing.T) { _ = Used().Planted() }
`)
	write("cmd/tool/main.go", `package main

import "fixture/internal/lib"

func main() {
	lib.Used()
	_ = lib.U{}
	var s lib.Speaker = lib.Dog{Name: "rex"}
	var w lib.Walker = lib.Cat{}
	w.Walk()
	_ = s
}
`)
	got, err := unusedExports(root, map[string]bool{"Hook": true})
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"internal/lib/lib.go:12: T.Planted",
		"internal/lib/lib.go:17: U.Used",
		"internal/lib/lib.go:19: Speaker.Speak",
		"internal/lib/lib.go:23: Dog.Speak",
	}
	if strings.Join(got, "\n") != strings.Join(want, "\n") {
		t.Fatalf("unusedExports =\n%s\nwant\n%s", strings.Join(got, "\n"), strings.Join(want, "\n"))
	}
}
