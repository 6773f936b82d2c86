package main

import (
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// option is one exported, non-embedded field of an exported *Config or
// *Options struct declared under internal/: name is "pkg.Type.Field" without the module's
// internal/ prefix.
type option struct {
	name string
	pos  string // file:line:col relative to the repository root
	key  string // the absolute declaration position
}

// roadmapItem matches the part of a field keep-list reason that names the
// ROADMAP item which will set the field or delete it.
var roadmapItem = regexp.MustCompile(`ROADMAP item [0-9]+`)

// optionFields type-checks the non-test files of every package of the
// modules under root. It returns the option fields declared under
// internal/, sorted by name, and for each one whether a non-test file
// outside the declaring package writes it: a keyed composite-literal
// entry, an unkeyed literal (which writes every field), an assignment or
// an increment, or taking its address. Fields are keyed by the position
// of their declaration, because the importer and each Check make their
// own *types.Var for one field.
func optionFields(root string) ([]option, map[string]bool, error) {
	root, err := filepath.Abs(root)
	if err != nil {
		return nil, nil, err
	}
	// The source importer resolves imports through build.Default, whose
	// go list runs in Dir: point it at each module in turn. Without cgo it
	// type-checks the standard library with no C toolchain.
	saved := build.Default
	defer func() { build.Default = saved }()
	build.Default.CgoEnabled = false

	fset := token.NewFileSet()
	internal := filepath.Join(root, "internal") + string(filepath.Separator)
	var opts []option
	written := map[string]bool{}
	for _, m := range modules {
		build.Default.Dir = filepath.Join(root, m)
		conf := types.Config{Importer: importer.ForCompiler(fset, "source", nil)}
		pkgs, err := listPackages(build.Default.Dir)
		if err != nil {
			return nil, nil, err
		}
		for _, p := range pkgs {
			bp, err := build.Default.ImportDir(p.dir, 0)
			if err != nil {
				if _, ok := err.(*build.NoGoError); ok {
					continue
				}
				return nil, nil, err
			}
			var files []*ast.File
			for _, name := range bp.GoFiles {
				f, err := parser.ParseFile(fset, filepath.Join(p.dir, name), nil, parser.SkipObjectResolution)
				if err != nil {
					return nil, nil, err
				}
				files = append(files, f)
			}
			info := &types.Info{
				Types:      map[ast.Expr]types.TypeAndValue{},
				Uses:       map[*ast.Ident]types.Object{},
				Selections: map[*ast.SelectorExpr]*types.Selection{},
			}
			pkg, err := conf.Check(p.path, fset, files, info)
			if err != nil {
				return nil, nil, fmt.Errorf("type-check %s: %w", p.path, err)
			}
			if strings.HasPrefix(p.dir+string(filepath.Separator), internal) {
				rel := filepath.ToSlash(strings.TrimPrefix(p.dir, internal))
				opts = append(opts, declaredOptions(fset, root, rel, pkg)...)
			}
			write := func(v *types.Var) {
				pos := fset.Position(v.Pos())
				if v.IsField() && filepath.Dir(pos.Filename) != p.dir {
					written[posKey(pos)] = true
				}
			}
			for _, f := range files {
				ast.Inspect(f, func(n ast.Node) bool {
					walkWrites(n, info, write)
					return true
				})
			}
		}
	}
	sort.Slice(opts, func(i, j int) bool { return opts[i].name < opts[j].name })
	return opts, written, nil
}

// declaredOptions lists the option fields pkg declares.
func declaredOptions(fset *token.FileSet, root, rel string, pkg *types.Package) []option {
	var out []option
	scope := pkg.Scope()
	for _, name := range scope.Names() {
		tn, ok := scope.Lookup(name).(*types.TypeName)
		if !ok || !tn.Exported() || !(strings.HasSuffix(name, "Config") || strings.HasSuffix(name, "Options")) {
			continue
		}
		st, ok := tn.Type().Underlying().(*types.Struct)
		if !ok {
			continue
		}
		for i := 0; i < st.NumFields(); i++ {
			// An embedded struct is no option of its own: its fields are
			// counted where they are declared.
			f := st.Field(i)
			if f.Exported() && !f.Embedded() {
				key := posKey(fset.Position(f.Pos()))
				out = append(out, option{
					name: rel + "." + name + "." + f.Name(),
					pos:  strings.TrimPrefix(key, root+string(filepath.Separator)),
					key:  key,
				})
			}
		}
	}
	return out
}

// walkWrites calls write for every struct field n writes.
func walkWrites(n ast.Node, info *types.Info, write func(*types.Var)) {
	switch n := n.(type) {
	case *ast.CompositeLit:
		t := info.Types[n].Type
		if t == nil {
			return
		}
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		st, ok := t.Underlying().(*types.Struct)
		if !ok || len(n.Elts) == 0 {
			return
		}
		if _, keyed := n.Elts[0].(*ast.KeyValueExpr); !keyed {
			for i := 0; i < st.NumFields(); i++ {
				write(st.Field(i))
			}
			return
		}
		for _, e := range n.Elts {
			if v, ok := info.Uses[e.(*ast.KeyValueExpr).Key.(*ast.Ident)].(*types.Var); ok {
				write(v)
			}
		}
	case *ast.AssignStmt:
		if n.Tok != token.DEFINE {
			for _, lhs := range n.Lhs {
				writeSelected(lhs, info, write)
			}
		}
	case *ast.IncDecStmt:
		writeSelected(n.X, info, write)
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			writeSelected(n.X, info, write)
		}
	}
}

// writeSelected calls write for the field e selects, if it selects one.
func writeSelected(e ast.Expr, info *types.Info, write func(*types.Var)) {
	sel, ok := ast.Unparen(e).(*ast.SelectorExpr)
	if !ok {
		return
	}
	if s := info.Selections[sel]; s != nil && s.Kind() == types.FieldVal {
		write(s.Obj().(*types.Var))
	}
}

func posKey(p token.Position) string { return fmt.Sprintf("%s:%d:%d", p.Filename, p.Line, p.Column) }

type listed struct{ path, dir string }

// listPackages lists the import path and directory of every package of the
// module in dir.
func listPackages(dir string) ([]listed, error) {
	list := exec.Command("go", "list", "-f", "{{.ImportPath}} {{.Dir}}", "./...")
	list.Dir = dir
	b, err := list.Output()
	if err != nil {
		return nil, fmt.Errorf("go list in %s: %w", dir, err)
	}
	var out []listed
	for _, line := range strings.Split(strings.TrimSpace(string(b)), "\n") {
		if path, d, ok := strings.Cut(line, " "); ok {
			out = append(out, listed{path, d})
		}
	}
	return out, nil
}

// checkFields returns a line for every option field that nothing outside
// its package writes and keep does not list, every keep entry whose reason
// names no ROADMAP item, and every entry that is stale: declared nowhere,
// or written.
func checkFields(opts []option, written map[string]bool, keep map[string]string) []string {
	var bad []string
	declared := map[string]bool{}
	for _, o := range opts {
		declared[o.name] = true
		reason, kept := keep[o.name]
		switch {
		case written[o.key] && kept:
			bad = append(bad, fmt.Sprintf("%s: %s is written outside its package; drop it from the field keep-list", o.pos, o.name))
		case !written[o.key] && !kept:
			bad = append(bad, fmt.Sprintf("%s: %s is written by no non-test file outside its package", o.pos, o.name))
		case kept && !roadmapItem.MatchString(reason):
			bad = append(bad, fmt.Sprintf("keep.go: %s is kept for a reason that names no ROADMAP item", o.name))
		}
	}
	var stale []string
	for name := range keep {
		if !declared[name] {
			stale = append(stale, fmt.Sprintf("keep.go: %s is not an option field in internal/", name))
		}
	}
	sort.Strings(stale)
	return append(bad, stale...)
}
