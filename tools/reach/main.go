// Command reach fails when a non-test function under internal/ is linked
// into no binary of the repository, or when an option field under
// internal/ is set by no caller, and it is not on the keep-list.
//
// It lists every func and method that internal/'s non-test files declare
// for the current GOOS/GOARCH, builds every main package of the root module
// and of the benchmark module with inlining off (so a function called only
// where it was inlined still has a symbol), and takes the union of the
// binaries' text symbols from go tool nm. A declared function that no
// symbol names is reached by no command, example or benchmark. It must be
// deleted, moved into a _test.go file, or listed in keep.go with a reason.
//
// An option field is an exported field of an exported *Config or *Options
// struct declared under internal/. It type-checks every package of both
// modules and fails on an option field that no non-test file outside its
// package writes: an option nobody sets has one value, and becomes a
// constant. A field stays unset only through keep.go, with a reason that
// names the ROADMAP item which will set it or delete it.
//
// Usage, from this directory:
//
//	go run . ../..
package main

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
)

// modules are the module directories, relative to the repository root,
// whose main packages are built.
var modules = []string{".", "benchmarks"}

// decl is one declared function: name is its symbol without the module's
// internal/ prefix, as in "netpkt.(*Batch).Release".
type decl struct {
	name string
	// alt is the pointer-receiver symbol of a value-receiver method, which
	// the compiler links instead of name when only the pointer form is
	// called; it is empty otherwise.
	alt string
	pos string
}

func main() {
	root := "."
	if len(os.Args) > 1 {
		root = os.Args[1]
	}
	if err := run(root); err != nil {
		fmt.Fprintln(os.Stderr, "reach:", err)
		os.Exit(1)
	}
}

func run(root string) error {
	modPath, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return err
	}
	decls, err := declared(root)
	if err != nil {
		return err
	}
	tmp, err := os.MkdirTemp("", "reach-")
	if err != nil {
		return err
	}
	defer os.RemoveAll(tmp)
	linked := map[string]bool{}
	bins := 0
	for i, m := range modules {
		out := filepath.Join(tmp, fmt.Sprint(i)) + string(filepath.Separator)
		n, err := buildMains(filepath.Join(root, m), out)
		if err != nil {
			return err
		}
		bins += n
		if err := readSymbols(out, modPath+"/internal/", linked); err != nil {
			return err
		}
	}
	if bins == 0 {
		return fmt.Errorf("no main package under %s", root)
	}

	keptFuncs := reasons(keep)
	byName := map[string]decl{}
	var dead []decl
	for _, d := range decls {
		byName[d.name] = d
		if linked[d.name] || (d.alt != "" && linked[d.alt]) {
			if _, ok := keptFuncs[d.name]; ok {
				fmt.Printf("%s: %s is linked; drop it from the keep-list\n", d.pos, d.name)
				dead = append(dead, d)
			}
			continue
		}
		if _, ok := keptFuncs[d.name]; !ok {
			fmt.Printf("%s: %s is linked into no binary\n", d.pos, d.name)
			dead = append(dead, d)
		}
	}
	var stale []string
	for name := range keptFuncs {
		if _, ok := byName[name]; !ok {
			stale = append(stale, name)
		}
	}
	sort.Strings(stale)
	for _, name := range stale {
		fmt.Printf("keep.go: %s is not declared in internal/\n", name)
	}

	opts, written, err := optionFields(root)
	if err != nil {
		return err
	}
	keptFields := reasons(keepFields)
	badFields := checkFields(opts, written, keptFields)
	for _, line := range badFields {
		fmt.Println(line)
	}
	fmt.Printf("reach: %d functions in internal/, %d binaries, %d kept unlinked; %d option fields, %d kept unset\n",
		len(decls), bins, len(keptFuncs), len(opts), len(keptFields))
	if len(dead)+len(stale)+len(badFields) > 0 {
		return fmt.Errorf("%d unreachable functions, %d stale keep-list entries and %d option-field problems",
			len(dead), len(stale), len(badFields))
	}
	return nil
}

func modulePath(gomod string) (string, error) {
	b, err := os.ReadFile(gomod)
	if err != nil {
		return "", err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return f[1], nil
		}
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}

// declared lists the funcs and methods of internal/'s non-test files that
// the current build context compiles, sorted by position.
func declared(root string) ([]decl, error) {
	base := filepath.Join(root, "internal")
	fset := token.NewFileSet()
	var out []decl
	err := filepath.WalkDir(base, func(path string, e fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if e.IsDir() {
			if e.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		name := e.Name()
		if !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			return nil
		}
		dir := filepath.Dir(path)
		if ok, err := build.Default.MatchFile(dir, name); err != nil || !ok {
			return err
		}
		rel, err := filepath.Rel(base, dir)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(rel)
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, d := range f.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "_" || (fn.Recv == nil && fn.Name.Name == "init") {
				continue
			}
			p := fset.Position(fn.Pos())
			pos := fmt.Sprintf("%s:%d", filepath.ToSlash(strings.TrimPrefix(p.Filename, root+string(filepath.Separator))), p.Line)
			out = append(out, funcDecl(pkg, fn, pos))
		}
		return nil
	})
	return out, err
}

func funcDecl(pkg string, fn *ast.FuncDecl, pos string) decl {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return decl{name: pkg + "." + fn.Name.Name, pos: pos}
	}
	t := fn.Recv.List[0].Type
	ptr := false
	if s, ok := t.(*ast.StarExpr); ok {
		ptr, t = true, s.X
	}
	switch x := t.(type) { // generic receivers: T[K] or T[K, V]
	case *ast.IndexExpr:
		t = x.X
	case *ast.IndexListExpr:
		t = x.X
	}
	typ := t.(*ast.Ident).Name
	if ptr {
		return decl{name: pkg + ".(*" + typ + ")." + fn.Name.Name, pos: pos}
	}
	return decl{
		name: pkg + "." + typ + "." + fn.Name.Name,
		alt:  pkg + ".(*" + typ + ")." + fn.Name.Name,
		pos:  pos,
	}
}

// buildMains builds every main package of the module in dir into out and
// returns how many it built.
func buildMains(dir, out string) (int, error) {
	list := exec.Command("go", "list", "-f", `{{if eq .Name "main"}}{{.ImportPath}}{{end}}`, "./...")
	list.Dir = dir
	list.Stderr = os.Stderr
	b, err := list.Output()
	if err != nil {
		return 0, fmt.Errorf("go list in %s: %w", dir, err)
	}
	pkgs := strings.Fields(string(b))
	if len(pkgs) == 0 {
		return 0, nil
	}
	args := append([]string{"build", "-gcflags=all=-l", "-o", out}, pkgs...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	cmd.Stdout, cmd.Stderr = os.Stderr, os.Stderr
	if err := cmd.Run(); err != nil {
		return 0, fmt.Errorf("go build in %s: %w", dir, err)
	}
	return len(pkgs), nil
}

// readSymbols adds to linked every text symbol under prefix of every binary
// in dir, with prefix removed and normalized by symbolName.
func readSymbols(dir, prefix string, linked map[string]bool) error {
	bins, err := os.ReadDir(dir)
	if err != nil {
		return err
	}
	for _, bin := range bins {
		nm := exec.Command("go", "tool", "nm", filepath.Join(dir, bin.Name()))
		nm.Stderr = os.Stderr
		b, err := nm.Output()
		if err != nil {
			return fmt.Errorf("go tool nm %s: %w", bin.Name(), err)
		}
		sc := bufio.NewScanner(bytes.NewReader(b))
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			// "<addr> <type> <name>"; a name may hold spaces.
			f := strings.SplitN(strings.TrimSpace(sc.Text()), " ", 3)
			if len(f) != 3 || (f[1] != "T" && f[1] != "t") {
				continue
			}
			if name, ok := strings.CutPrefix(symbolName(f[2]), prefix); ok {
				linked[name] = true
			}
		}
		if err := sc.Err(); err != nil {
			return err
		}
	}
	return nil
}

// closure matches the suffix the compiler gives a function literal, a go or
// defer wrapper, or a method value inside its enclosing function's symbol,
// and the ABI suffix of a function written in assembly.
var closure = regexp.MustCompile(`(\.(func|gowrap|deferwrap)[0-9]+.*|-fm|\.abi0)$`)

// symbolName strips the type arguments of a generic instantiation (the
// brackets may nest) and the closure suffix, leaving the symbol of the
// declared function: "p.(*T[go.shape.int]).M.func1" becomes "p.(*T).M".
func symbolName(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return closure.ReplaceAllString(b.String(), "")
}
