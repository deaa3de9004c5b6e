package repro

import (
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// testOnlyAllowed lists the declarations under internal/ that only tests
// use and that stay anyway, each with the reason it earns its place.
var testOnlyAllowed = map[string]string{
	"internal/group.FromTrace":   "the record-driven reference that FromMatrix is checked against",
	"internal/paper.ResetCaches": "the root benchmarks clear the figure memos between iterations",
}

// standardMethods are method names the standard library calls through an
// interface the module itself never declares (fmt, errors, encoding/json,
// sort, io, net/http, math/rand).
var standardMethods = []string{
	"String", "GoString", "Format", "Error", "Unwrap", "Is", "As",
	"MarshalJSON", "UnmarshalJSON", "MarshalText", "UnmarshalText",
	"Len", "Less", "Swap", "Read", "Write", "Close", "ServeHTTP",
	"Int63", "Uint64", "Seed",
}

// TestNoTestOnlyCode type-checks every non-test file of the module, bench/
// included, and fails on each func, method, const, var or type declared
// under internal/ that no non-test file uses. A use inside the declaration
// itself, or a method's receiver naming its own type, does not count. A
// method whose name matches a method of an interface declared in the module,
// or one of standardMethods, counts as used.
func TestNoTestOnlyCode(t *testing.T) {
	fset, pkgs, info := loadModule(t, "repro")

	// Method names some interface may call.
	ifaceMethods := map[string]bool{}
	for _, name := range standardMethods {
		ifaceMethods[name] = true
	}
	for expr, tv := range info.Types {
		if _, literal := expr.(*ast.InterfaceType); literal {
			addMethods(ifaceMethods, tv.Type)
		}
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok {
			addMethods(ifaceMethods, tn.Type())
		}
	}

	// Every declaration under internal/, with the span its uses of itself
	// fall in, and the identifiers of method receivers.
	type decl struct {
		key      string
		pos      token.Pos
		from, to token.Pos
	}
	decls := map[types.Object]decl{}
	receiver := map[*ast.Ident]bool{}
	for _, p := range pkgs {
		if !strings.HasPrefix(p.rel, "internal/") {
			continue
		}
		for _, f := range p.files {
			for _, d := range f.Decls {
				switch d := d.(type) {
				case *ast.FuncDecl:
					key := p.rel + "."
					if d.Recv != nil {
						ast.Inspect(d.Recv, func(n ast.Node) bool {
							if id, ok := n.(*ast.Ident); ok {
								receiver[id] = true
							}
							return true
						})
						if ifaceMethods[d.Name.Name] {
							continue
						}
						key += recvName(d.Recv.List[0].Type) + "."
					} else if d.Name.Name == "init" || d.Name.Name == "main" {
						continue
					}
					decls[info.Defs[d.Name]] = decl{key + d.Name.Name, d.Name.Pos(), d.Pos(), d.End()}
				case *ast.GenDecl:
					for _, s := range d.Specs {
						switch s := s.(type) {
						case *ast.TypeSpec:
							decls[info.Defs[s.Name]] = decl{p.rel + "." + s.Name.Name, s.Name.Pos(), s.Pos(), s.End()}
						case *ast.ValueSpec:
							for _, n := range s.Names {
								if n.Name != "_" {
									decls[info.Defs[n]] = decl{p.rel + "." + n.Name, n.Pos(), s.Pos(), s.End()}
								}
							}
						}
					}
				}
			}
		}
	}

	used := map[types.Object]bool{}
	for id, obj := range info.Uses {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if d, ok := decls[obj]; ok && !receiver[id] && (id.Pos() < d.from || id.Pos() >= d.to) {
			used[obj] = true
		}
	}

	var found []string
	allowed := map[string]bool{}
	for obj, d := range decls {
		switch _, ok := testOnlyAllowed[d.key]; {
		case used[obj]:
		case ok:
			allowed[d.key] = true
		default:
			found = append(found, fset.Position(d.pos).String()+": "+d.key)
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Errorf("used only by tests: %s", f)
	}
	for key := range testOnlyAllowed {
		if !allowed[key] {
			t.Errorf("allowlisted %s has a non-test use or is gone: drop it from testOnlyAllowed", key)
		}
	}
}

// srcPackage is one directory of the module: its path relative to the
// module root and its parsed non-test files.
type srcPackage struct {
	rel   string
	files []*ast.File
	types *types.Package
}

// loadModule parses the non-test files of every package under the module
// root (the working directory), skipping testdata and hidden directories,
// and type-checks them into one types.Info. A nested module such as bench/
// needs no special case: its path is its directory under the root's module
// path, as its go.mod declares.
func loadModule(t *testing.T, module string) (*token.FileSet, map[string]*srcPackage, *types.Info) {
	t.Helper()
	fset := token.NewFileSet()
	pkgs := map[string]*srcPackage{}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		bp, err := build.Default.ImportDir(path, 0)
		if _, none := err.(*build.NoGoError); none {
			return nil
		} else if err != nil {
			return err
		}
		p := &srcPackage{rel: filepath.ToSlash(path)}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(path, name), nil, parser.SkipObjectResolution)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		importPath := module
		if p.rel != "." {
			importPath += "/" + p.rel
		}
		pkgs[importPath] = p
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	im := &srcImporter{fset: fset, pkgs: pkgs, std: importer.Default(), info: info}
	for path := range pkgs {
		if _, err := im.Import(path); err != nil {
			t.Fatal(err)
		}
	}
	return fset, pkgs, info
}

// srcImporter type-checks module packages from source into one shared
// types.Info and imports everything else from export data.
type srcImporter struct {
	fset *token.FileSet
	pkgs map[string]*srcPackage
	std  types.Importer
	info *types.Info
}

func (im *srcImporter) Import(path string) (*types.Package, error) {
	p, ok := im.pkgs[path]
	if !ok {
		return im.std.Import(path)
	}
	if p.types == nil {
		conf := types.Config{Importer: im}
		pkg, err := conf.Check(path, im.fset, p.files, im.info)
		if err != nil {
			return nil, err
		}
		p.types = pkg
	}
	return p.types, nil
}

// addMethods adds the method names of t to set when t is an interface.
func addMethods(set map[string]bool, t types.Type) {
	if it, ok := t.Underlying().(*types.Interface); ok {
		for i := 0; i < it.NumMethods(); i++ {
			set[it.Method(i).Name()] = true
		}
	}
}

// recvName is the base type name of a method receiver.
func recvName(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			return "?"
		}
	}
}
