// Command apicheck lints the HTTP API surface in internal/server so
// the API contract cannot rot silently:
//
//   - every error response must go through the designated WriteError
//     writer (which emits the error envelope): calls to http.Error and
//     hand-rolled {"error": ...} map literals outside WriteError fail
//     the check;
//   - every status goes out through the two designated writers,
//     WriteJSON and WriteError: a WriteHeader call anywhere else fails
//     the check;
//   - every route must be registered inside the routes() function;
//   - every registered pattern must start with the APIPrefix constant
//     (the /api/v1 mount), after an optional "METHOD " literal — an
//     unversioned or stray registration fails the check.
//
// Run from the repository root (CI does): go run ./cmd/apicheck
// A non-default package directory can be passed as the only argument.
package main

import (
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"regexp"
	"strconv"
	"strings"
)

const prefixConst = "APIPrefix"

// methodLit matches the "METHOD " literal a pattern may open with.
var methodLit = regexp.MustCompile(`^[A-Z]+ $`)

func main() {
	dir := "internal/server"
	if len(os.Args) > 1 {
		dir = os.Args[1]
	}
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, dir, func(fi os.FileInfo) bool {
		return !strings.HasSuffix(fi.Name(), "_test.go")
	}, 0)
	if err != nil {
		fmt.Fprintf(os.Stderr, "apicheck: parsing %s: %v\n", dir, err)
		os.Exit(2)
	}
	var fails []string
	fail := func(pos token.Pos, format string, args ...any) {
		fails = append(fails, fmt.Sprintf("%s: %s", fset.Position(pos), fmt.Sprintf(format, args...)))
	}
	for _, pkg := range pkgs {
		for _, file := range pkg.Files {
			for _, decl := range file.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok || fd.Body == nil {
					continue
				}
				checkFunc(fd, fail)
			}
		}
	}
	if len(fails) > 0 {
		for _, f := range fails {
			fmt.Fprintln(os.Stderr, f)
		}
		fmt.Fprintf(os.Stderr, "apicheck: %d violation(s)\n", len(fails))
		os.Exit(1)
	}
	fmt.Println("apicheck: ok")
}

func checkFunc(fd *ast.FuncDecl, fail func(token.Pos, string, ...any)) {
	name := fd.Name.Name
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.CallExpr:
			sel, ok := n.Fun.(*ast.SelectorExpr)
			if !ok {
				return true
			}
			if id, ok := sel.X.(*ast.Ident); ok && id.Name == "http" && sel.Sel.Name == "Error" {
				fail(n.Pos(), "http.Error bypasses the error envelope; use WriteError")
			}
			if sel.Sel.Name == "WriteHeader" && name != "WriteJSON" && name != "WriteError" {
				fail(n.Pos(), "WriteHeader outside WriteJSON/WriteError; respond through one of the two writers")
			}
			if sel.Sel.Name != "HandleFunc" && sel.Sel.Name != "Handle" {
				return true
			}
			// Any registration counts, whatever the receiver: all of them
			// belong in routes(), under the one versioned mount.
			if name != "routes" {
				fail(n.Pos(), "route registered outside routes(); all registrations go through routes()")
			} else if len(n.Args) > 0 && !startsWithPrefix(n.Args[0]) {
				fail(n.Pos(), "route pattern does not start with %s; hardcoded paths make the mount unversioned", prefixConst)
			}
		case *ast.CompositeLit:
			// A hand-rolled {"error": ...} body outside the designated
			// writer is a second error shape waiting to diverge.
			if name == "WriteError" {
				return true
			}
			for _, elt := range n.Elts {
				kv, ok := elt.(*ast.KeyValueExpr)
				if !ok {
					continue
				}
				if lit, ok := kv.Key.(*ast.BasicLit); ok && lit.Value == `"error"` {
					fail(kv.Pos(), "error body constructed outside WriteError; use WriteError so every error is the envelope")
				}
			}
		}
		return true
	})
}

// startsWithPrefix reports whether a pattern expression is
// ["METHOD " +] APIPrefix [+ ...].
func startsWithPrefix(expr ast.Expr) bool {
	var ops []ast.Expr
	var flatten func(ast.Expr)
	flatten = func(e ast.Expr) {
		if b, ok := e.(*ast.BinaryExpr); ok && b.Op == token.ADD {
			flatten(b.X)
			flatten(b.Y)
			return
		}
		ops = append(ops, e)
	}
	flatten(expr)
	if lit, ok := ops[0].(*ast.BasicLit); ok && len(ops) > 1 {
		if s, err := strconv.Unquote(lit.Value); err == nil && methodLit.MatchString(s) {
			ops = ops[1:]
		}
	}
	id, ok := ops[0].(*ast.Ident)
	return ok && id.Name == prefixConst
}
