package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
)

// goFile is one parsed .go file of the tree testOnlyExports walks.
type goFile struct {
	dir  string // slash-separated, relative to the root
	test bool
	ast  *ast.File
}

var moduleLine = regexp.MustCompile(`(?m)^module\s+(\S+)`)

// testOnlyExports lists each exported top-level func or method
// declared in a non-test file under root/internal whose name no
// non-test .go file of the tree uses. A name counts as used wherever
// it appears as an identifier other than a func declaration's name or
// a method name declared in an interface type, so a call through an
// interface or a field of the same name counts too, but an interface
// that merely lists the method does not.
// The walk skips what the go tool skips: testdata and directories whose
// name starts with "." or "_". Hits come in walk order, which is
// lexical. Two kinds of declaration are exempt:
// methods of a type the root package re-exports with type X = pkg.T
// (the library's API), and packages that only _test.go files import
// (test fakes).
func testOnlyExports(root string) ([]string, error) {
	mod, err := os.ReadFile(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, err
	}
	m := moduleLine.FindSubmatch(mod)
	if m == nil {
		return nil, fmt.Errorf("%s/go.mod: no module line", root)
	}
	module := string(m[1])

	fset := token.NewFileSet()
	var files []goFile
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(name, ".go") {
			return nil
		}
		f, err := parser.ParseFile(fset, p, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, filepath.Dir(p))
		if err != nil {
			return err
		}
		files = append(files, goFile{dir: filepath.ToSlash(rel), test: strings.HasSuffix(name, "_test.go"), ast: f})
		return nil
	})
	if err != nil {
		return nil, err
	}

	// Names used by non-test code, the import paths that code pulls
	// in, and those test code pulls in.
	used := map[string]bool{}
	prodImports, testImports := map[string]bool{}, map[string]bool{}
	for _, f := range files {
		imports := prodImports
		if f.test {
			imports = testImports
		}
		for _, spec := range f.ast.Imports {
			p, _ := strconv.Unquote(spec.Path.Value)
			imports[p] = true
		}
		if f.test {
			continue
		}
		declared := map[*ast.Ident]bool{}
		for _, decl := range f.ast.Decls {
			if fd, ok := decl.(*ast.FuncDecl); ok {
				declared[fd.Name] = true
			}
		}
		ast.Inspect(f.ast, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.InterfaceType:
				for _, m := range n.Methods.List {
					for _, name := range m.Names {
						declared[name] = true
					}
				}
			case *ast.Ident:
				if !declared[n] {
					used[n.Name] = true
				}
			}
			return true
		})
	}

	// Types the root package re-exports by alias, keyed "importpath.Type".
	api := map[string]bool{}
	for _, f := range files {
		if f.test || f.dir != "." {
			continue
		}
		for _, decl := range f.ast.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.TYPE {
				continue
			}
			for _, spec := range gd.Specs {
				ts := spec.(*ast.TypeSpec)
				sel, ok := ts.Type.(*ast.SelectorExpr)
				if !ts.Assign.IsValid() || !ok {
					continue
				}
				if pkg, ok := sel.X.(*ast.Ident); ok {
					api[importPath(f.ast, pkg.Name)+"."+sel.Sel.Name] = true
				}
			}
		}
	}

	var hits []string
	for _, f := range files {
		if f.test || !(f.dir == "internal" || strings.HasPrefix(f.dir, "internal/")) {
			continue
		}
		pkgPath := module + "/" + f.dir
		if testImports[pkgPath] && !prodImports[pkgPath] {
			continue
		}
		for _, decl := range f.ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || !fd.Name.IsExported() || used[fd.Name.Name] {
				continue
			}
			name := f.ast.Name.Name + "." + fd.Name.Name
			if fd.Recv != nil {
				recv := receiverType(fd.Recv.List[0].Type)
				if api[pkgPath+"."+recv] {
					continue
				}
				name = f.ast.Name.Name + "." + recv + "." + fd.Name.Name
			}
			hits = append(hits, fmt.Sprintf("%s: %s is exported but only tests use it; move it into a _test.go file or delete it",
				fset.Position(fd.Name.Pos()), name))
		}
	}
	return hits, nil
}

// importPath is the path of the package file f imports under name.
func importPath(f *ast.File, name string) string {
	for _, spec := range f.Imports {
		p, _ := strconv.Unquote(spec.Path.Value)
		local := path.Base(p)
		if spec.Name != nil {
			local = spec.Name.Name
		}
		if local == name {
			return p
		}
	}
	return ""
}

// receiverType is the base type name of a method receiver: T for T,
// *T, T[P] and *T[P].
func receiverType(e ast.Expr) string {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.Ident:
			return t.Name
		default:
			return ""
		}
	}
}
