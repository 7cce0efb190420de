package roadpart

import (
	"bytes"
	"encoding/json"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// exportAllowlist names the exported identifiers under internal/ that no
// non-test file of either module uses but that stay on purpose, each
// with its reason. Keys are the package path below the module root, a
// dot, and the name ("internal/cut.AlphaCutValue") or the type and the
// method or field name ("internal/jobs.Manager.Kill").
var exportAllowlist = map[string]string{
	"internal/cut.AlphaCutValue":              "test oracle: the α-Cut objective of Eq. 5",
	"internal/cut.NCutValue":                  "test oracle: the normalized-cut objective",
	"internal/cut.Modularity":                 "test oracle: modularity of a labeling",
	"internal/cut.Options.Normalized":         "TestNormalizedMatchesDownstreamDefaults cross-checks it against every caller",
	"internal/cut.ReduceRecursiveBipartition": "names the zero-value Reduction, the paper's choice",
	"internal/eigen.Residual":                 "test oracle: the explicit residual ‖Av − λv‖",
	"internal/linalg.CSR.At":                  "cross-package test fixture",
	"internal/jobs.Manager.Kill":              "fault-injection hook of the chaos suite",
	"internal/jobs.Manager.Crashed":           "fault-injection hook of the chaos suite",
	"internal/jobs.Manager.Wait":              "test hook: blocks until a job is terminal",
	"internal/resultcache.Cache.Bytes":        "cache-occupancy probe",
	"internal/resultcache.Store.Dir":          "store-location probe",
	"internal/roadnet.ReadJSON":               "the fuzz entry point of the wire-format decoder",
	"internal/jsontest.Identical":             "internal/jsontest is the shared test-helper package",
	"internal/jsontest.StrictOnly":            "internal/jsontest is the shared test-helper package",
	"internal/server.admitError.Unwrap":       "errors.Is and errors.As reach it through an unnamed interface",
	"internal/server.statusWriter.Unwrap":     "http.ResponseController reaches it through an unnamed interface",
}

// TestEveryInternalExportHasACaller fails when an exported func, method,
// type, const, var or struct field declared in a non-test file under
// internal/ is used by no non-test file of this module or of the nested
// perfbench module. A method's own receiver does not count as a use of
// its type. Two groups are exempt automatically: methods and
// fields of the types the root package re-exports by alias (public API),
// and methods whose name and signature match an interface method.
// Everything else that stays is in exportAllowlist.
func TestEveryInternalExportHasACaller(t *testing.T) {
	pkgs := map[string]*listedPackage{}
	var order []string
	for _, dir := range []string{".", "perfbench"} {
		for _, p := range goListDeps(t, dir) {
			if _, seen := pkgs[p.ImportPath]; !seen {
				pkgs[p.ImportPath] = p
				order = append(order, p.ImportPath)
			}
		}
	}

	fset := token.NewFileSet()
	gc := importer.ForCompiler(fset, "gc", func(path string) (io.ReadCloser, error) {
		p, ok := pkgs[path]
		if !ok || p.Export == "" {
			return nil, os.ErrNotExist
		}
		return os.Open(p.Export)
	})
	checked := map[string]*types.Package{}
	imp := importerFunc(func(path string) (*types.Package, error) {
		if tp, ok := checked[path]; ok {
			return tp, nil
		}
		return gc.Import(path)
	})
	info := &types.Info{
		Uses:  map[*ast.Ident]types.Object{},
		Types: map[ast.Expr]types.TypeAndValue{},
	}
	// A method's receiver names its own type; that is no use of the type.
	receiver := map[*ast.Ident]bool{}
	// go list -deps orders dependencies before their importers, so every
	// module import is type-checked from source before it is needed.
	for _, path := range order {
		p := pkgs[path]
		if p.Standard {
			continue
		}
		var files []*ast.File
		for _, name := range p.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(p.Dir, name), nil, 0)
			if err != nil {
				t.Fatal(err)
			}
			files = append(files, f)
			for _, d := range f.Decls {
				if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv != nil {
					ast.Inspect(fd.Recv, func(n ast.Node) bool {
						if id, ok := n.(*ast.Ident); ok {
							receiver[id] = true
						}
						return true
					})
				}
			}
		}
		conf := types.Config{Importer: imp}
		tp, err := conf.Check(path, fset, files, info)
		if err != nil {
			t.Fatalf("type-check %s: %v", path, err)
		}
		checked[path] = tp
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		if !receiver[id] {
			used[obj] = true
		}
	}
	ifaces := interfaceMethods(checked, info)
	public := publicSurface(checked["roadpart"])

	var missing []string
	allowed := map[string]bool{}
	for path, tp := range checked {
		if !strings.HasPrefix(path, "roadpart/internal/") {
			continue
		}
		rel := strings.TrimPrefix(path, "roadpart/")
		report := func(obj types.Object, key string) {
			if !obj.Exported() || used[obj] || public[obj] {
				return
			}
			if _, ok := exportAllowlist[key]; ok {
				allowed[key] = true
				return
			}
			missing = append(missing, key+" ("+fset.Position(obj.Pos()).String()+")")
		}
		scope := tp.Scope()
		for _, name := range scope.Names() {
			obj := scope.Lookup(name)
			report(obj, rel+"."+name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named, ok := tn.Type().(*types.Named)
			if !ok {
				continue
			}
			for i := 0; i < named.NumMethods(); i++ {
				m := named.Method(i)
				if !ifaces.matches(m) {
					report(m, rel+"."+name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					if f := st.Field(i); !f.Embedded() {
						report(f, rel+"."+name+"."+f.Name())
					}
				}
			}
		}
	}
	for key := range exportAllowlist {
		if !allowed[key] {
			t.Errorf("allowlist entry %q names no unused exported identifier; remove it", key)
		}
	}
	sort.Strings(missing)
	if len(missing) > 0 {
		t.Errorf("exported names under internal/ with no non-test caller (%d); delete them, or allowlist them with a reason in exports_test.go:\n\t%s",
			len(missing), strings.Join(missing, "\n\t"))
	}
}

type listedPackage struct {
	ImportPath string
	Dir        string
	Export     string
	Standard   bool
	GoFiles    []string
}

// goListDeps lists the packages of the module in dir with their
// dependencies, dependencies first, with export data for each.
func goListDeps(t *testing.T, dir string) []*listedPackage {
	t.Helper()
	cmd := exec.Command("go", "list", "-deps", "-export", "-json=ImportPath,Dir,Export,Standard,GoFiles", "./...")
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go list in %s: %v\n%s", dir, err, stderr.String())
	}
	var list []*listedPackage
	dec := json.NewDecoder(bytes.NewReader(out))
	for dec.More() {
		p := new(listedPackage)
		if err := dec.Decode(p); err != nil {
			t.Fatal(err)
		}
		list = append(list, p)
	}
	return list
}

type importerFunc func(path string) (*types.Package, error)

func (f importerFunc) Import(path string) (*types.Package, error) { return f(path) }

// ifaceSet holds every interface method visible to the module, keyed by
// name, so a method that satisfies one of them counts as used.
type ifaceSet map[string][]*types.Func

func (s ifaceSet) matches(m *types.Func) bool {
	for _, im := range s[m.Name()] {
		if types.Identical(im.Type(), m.Type()) {
			return true
		}
	}
	return false
}

// interfaceMethods collects the methods of every named interface in the
// checked packages and their imports, plus every interface type literal
// the module spells out.
func interfaceMethods(checked map[string]*types.Package, info *types.Info) ifaceSet {
	s := ifaceSet{}
	seen := map[*types.Interface]bool{}
	add := func(t types.Type) {
		it, ok := t.Underlying().(*types.Interface)
		if !ok || seen[it] {
			return
		}
		seen[it] = true
		for i := 0; i < it.NumMethods(); i++ {
			m := it.Method(i)
			s[m.Name()] = append(s[m.Name()], m)
		}
	}
	visited := map[*types.Package]bool{}
	var walk func(p *types.Package)
	walk = func(p *types.Package) {
		if visited[p] {
			return
		}
		visited[p] = true
		for _, name := range p.Scope().Names() {
			if tn, ok := p.Scope().Lookup(name).(*types.TypeName); ok {
				add(tn.Type())
			}
		}
		for _, q := range p.Imports() {
			walk(q)
		}
	}
	for _, p := range checked {
		walk(p)
	}
	for _, tv := range info.Types {
		if tv.Type != nil {
			add(tv.Type)
		}
	}
	return s
}

// publicSurface returns the methods and fields of the types the root
// package re-exports by alias: they are public API even when nothing in
// the module calls them.
func publicSurface(root *types.Package) map[types.Object]bool {
	out := map[types.Object]bool{}
	for _, name := range root.Scope().Names() {
		tn, ok := root.Scope().Lookup(name).(*types.TypeName)
		if !ok || !tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			out[named.Method(i)] = true
		}
		if st, ok := named.Underlying().(*types.Struct); ok {
			for i := 0; i < st.NumFields(); i++ {
				out[st.Field(i)] = true
			}
		}
	}
	return out
}
