package main

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// deadAPIAllowlist names the exported declarations under internal/ that no
// program code calls but a test uses as a reference or fixture, each with
// that test.
var deadAPIAllowlist = map[string]string{
	"conflict.Graph.Degree":        "TestNumEdgesMatchesDegreeSum",
	"mesh16.Wins":                  "TestElectionDeterministicAndAgreed",
	"schedule.SolveWindow":         "TestDifferentialMinSlotsVsLinear",
	"sim.Kernel.Pending":           "TestCancelCompaction",
	"sim.Kernel.Processed":         "TestDifferentialRandomScheduleCancel",
	"tdma.DefaultWiMAXFrame":       "TestFrameArithmetic",
	"topology.Network.SetLinkRate": "TestPlanHonorsPerLinkRates",
}

// TestNoDeadExportedAPI fails when an exported function, method or type
// declared under internal/ is used by no non-test code of the module or of
// benchmark/. Uses from the declaration itself, from a type's own methods
// (its receivers included) and from other dead declarations do not count, so
// a type reachable only through its own methods or an unused constructor is
// reported too. A call through an interface keeps every method of that name
// alive, and a String method counts as used.
func TestNoDeadExportedAPI(t *testing.T) {
	m := loadModule(t)
	dead := m.deadAPI()
	for key, test := range deadAPIAllowlist {
		switch {
		case !m.testFuncs[test]:
			t.Errorf("allowlist entry %s names %q, which is no test function", key, test)
		case !dead[key]:
			t.Errorf("allowlist entry %s has a caller in program code now; delete the entry", key)
		}
		delete(dead, key)
	}
	var keys []string
	for key := range dead {
		keys = append(keys, key)
	}
	sort.Strings(keys)
	for _, key := range keys {
		t.Errorf("%s is exported but no non-test code uses it: delete it, or allowlist it with the test that needs it", key)
	}
}

// apiModule is the type-checked non-test code of the module and of
// benchmark/, which imports it.
type apiModule struct {
	fset      *token.FileSet
	pkgs      map[string]*types.Package
	files     map[string][]*ast.File
	info      *types.Info
	std       types.Importer
	testFuncs map[string]bool // top-level function names of the test files
}

func loadModule(t *testing.T) *apiModule {
	t.Helper()
	fset := token.NewFileSet()
	m := &apiModule{
		fset:      fset,
		pkgs:      map[string]*types.Package{},
		files:     map[string][]*ast.File{},
		info:      &types.Info{Uses: map[*ast.Ident]types.Object{}, Defs: map[*ast.Ident]types.Object{}},
		std:       importer.ForCompiler(fset, "source", nil),
		testFuncs: map[string]bool{},
	}
	err := filepath.WalkDir(".", func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() {
			return nil
		}
		if p != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
			return filepath.SkipDir
		}
		return m.parseDir(p)
	})
	if err != nil {
		t.Fatal(err)
	}
	for p := range m.files {
		if _, err := m.Import(p); err != nil {
			t.Fatal(err)
		}
	}
	return m
}

// parseDir parses the Go files of one directory that the default build
// context selects, recording the test files' function names.
func (m *apiModule) parseDir(dir string) error {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	pkg := path.Join("wimesh", filepath.ToSlash(dir))
	for _, e := range ents {
		if ok, err := build.Default.MatchFile(dir, e.Name()); err != nil || !ok {
			continue
		}
		f, err := parser.ParseFile(m.fset, filepath.Join(dir, e.Name()), nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		if !strings.HasSuffix(e.Name(), "_test.go") {
			m.files[pkg] = append(m.files[pkg], f)
			continue
		}
		for _, d := range f.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok && fd.Recv == nil {
				m.testFuncs[fd.Name.Name] = true
			}
		}
	}
	return nil
}

// Import type-checks a package of the module on first use; the standard
// library is type-checked from source.
func (m *apiModule) Import(p string) (*types.Package, error) {
	if pkg, ok := m.pkgs[p]; ok {
		return pkg, nil
	}
	if _, ok := m.files[p]; !ok {
		return m.std.Import(p)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(p, m.fset, m.files[p], m.info)
	m.pkgs[p] = pkg
	return pkg, err
}

// deadAPI returns the keys ("pkg.Name" or "pkg.Type.Method", pkg relative to
// internal/) of the exported functions, methods and types under internal/
// that only dead code uses.
func (m *apiModule) deadAPI() map[string]bool {
	type use struct{ owner, target types.Object }
	var uses []use
	tracked := map[types.Object]string{}
	recvOf := map[types.Object]types.Object{} // method → its receiver's type name
	ifaceCalls := map[string][]types.Object{} // method name → owners calling it through an interface
	methods := map[string][]types.Object{}    // method name → tracked methods
	for p, files := range m.files {
		internal := strings.HasPrefix(p, "wimesh/internal/")
		short := strings.TrimPrefix(p, "wimesh/internal/")
		for _, f := range files {
			for _, d := range f.Decls {
				var owner types.Object
				var skip ast.Node // the receiver of a method
				switch d := d.(type) {
				case *ast.FuncDecl:
					owner = m.info.Defs[d.Name]
					key := short + "." + d.Name.Name
					if d.Recv != nil {
						skip = d.Recv
						recv := owner.Type().(*types.Signature).Recv().Type()
						if ptr, ok := recv.(*types.Pointer); ok {
							recv = ptr.Elem()
						}
						recvOf[owner] = recv.(*types.Named).Obj()
						key = short + "." + recvOf[owner].Name() + "." + d.Name.Name
						methods[d.Name.Name] = append(methods[d.Name.Name], owner)
					}
					if internal && d.Name.IsExported() {
						tracked[owner] = key
					}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						if ts, ok := s.(*ast.TypeSpec); ok && internal && ts.Name.IsExported() {
							tracked[m.info.Defs[ts.Name]] = short + "." + ts.Name.Name
						}
					}
				}
				ast.Inspect(d, func(n ast.Node) bool {
					if n == skip {
						return false
					}
					if ts, ok := n.(*ast.TypeSpec); ok {
						owner = m.info.Defs[ts.Name]
					}
					id, ok := n.(*ast.Ident)
					if !ok {
						return true
					}
					obj := m.info.Uses[id]
					if fn, ok := obj.(*types.Func); ok {
						obj = fn.Origin()
						if recv := fn.Type().(*types.Signature).Recv(); recv != nil && types.IsInterface(recv.Type()) {
							ifaceCalls[fn.Name()] = append(ifaceCalls[fn.Name()], owner)
						}
					}
					if obj != nil {
						uses = append(uses, use{owner, obj})
					}
					return true
				})
			}
		}
	}

	dead := map[types.Object]bool{}
	for {
		live := map[types.Object]bool{}
		for _, u := range uses {
			if !dead[u.owner] && u.target != u.owner && recvOf[u.owner] != u.target {
				live[u.target] = true
			}
		}
		for name, owners := range ifaceCalls {
			for _, o := range owners {
				if !dead[o] {
					for _, fn := range methods[name] {
						live[fn] = true
					}
					break
				}
			}
		}
		changed := false
		for obj := range tracked {
			isDead := !live[obj]
			if recv := recvOf[obj]; recv != nil {
				// fmt calls String through fmt.Stringer, never by name.
				isDead = (isDead && obj.Name() != "String") || dead[recv]
			}
			if isDead && !dead[obj] {
				dead[obj] = true
				changed = true
			}
		}
		if !changed {
			break
		}
	}
	keys := map[string]bool{}
	for obj := range dead {
		keys[tracked[obj]] = true
	}
	return keys
}
