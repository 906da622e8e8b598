package iokvet

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"regexp"
	"sort"
	"strings"
)

// Analyzer is one named check. Run inspects a type-checked package and
// reports findings through the Pass; the driver applies //iokvet:allow
// suppression afterwards, so analyzers report unconditionally.
type Analyzer struct {
	Name string
	// Doc is the one-line invariant statement shown by `iokvet -list`
	// and the usage text.
	Doc string
	// Packages restricts the analyzer to import paths equal to or under
	// one of these prefixes. Empty means every package.
	Packages []string
	Run      func(*Pass) error
}

// appliesTo reports whether the analyzer runs on the package path.
func (a *Analyzer) appliesTo(path string) bool {
	if len(a.Packages) == 0 {
		return true
	}
	for _, p := range a.Packages {
		if path == p || strings.HasPrefix(path, p+"/") {
			return true
		}
	}
	return false
}

// Pass carries one analyzer's view of one package.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	Files    []*ast.File
	Pkg      *types.Package
	Info     *types.Info

	diags *[]Diagnostic
}

// Reportf records one finding at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// CalleeName resolves a call's callee to its qualified name:
// "time.Now" for package functions, "(*os.File).Sync" for methods,
// "(iokast/internal/engine.Log).LogInsert" for interface methods.
// Returns "" when the callee is not a named function (builtin, func
// value, conversion).
func (p *Pass) CalleeName(call *ast.CallExpr) string {
	var id *ast.Ident
	switch fun := ast.Unparen(call.Fun).(type) {
	case *ast.Ident:
		id = fun
	case *ast.SelectorExpr:
		id = fun.Sel
	default:
		return ""
	}
	fn, ok := p.Info.Uses[id].(*types.Func)
	if !ok {
		return ""
	}
	return fn.FullName()
}

// Diagnostic is one finding, positioned and attributed to its analyzer.
type Diagnostic struct {
	Analyzer string         `json:"analyzer"`
	Pos      token.Position `json:"-"`
	Message  string         `json:"message"`
}

// Run executes every applicable analyzer over every package, applies
// directive suppression, and returns the surviving findings ordered by
// file, line, column, analyzer.
func Run(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			if !a.appliesTo(pkg.ImportPath) {
				continue
			}
			pass := &Pass{
				Analyzer: a,
				Fset:     pkg.Fset,
				Files:    pkg.Files,
				Pkg:      pkg.Types,
				Info:     pkg.Info,
				diags:    &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
		sup, dirDiags := directives(pkg, analyzers)
		pkgDiags = append(pkgDiags, dirDiags...)
		for _, d := range pkgDiags {
			if !sup.suppressed(d) {
				diags = append(diags, d)
			}
		}
	}
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
	return diags, nil
}

// suppression maps analyzer name -> file -> suppressed line ranges.
type suppression map[string]map[string][][2]int

func (s suppression) add(analyzer, file string, from, to int) {
	if s[analyzer] == nil {
		s[analyzer] = map[string][][2]int{}
	}
	s[analyzer][file] = append(s[analyzer][file], [2]int{from, to})
}

func (s suppression) suppressed(d Diagnostic) bool {
	if d.Analyzer == "directive" {
		return false // directive problems are never suppressible
	}
	for _, ranges := range []([][2]int){s[d.Analyzer][d.Pos.Filename], s["*"][d.Pos.Filename]} {
		for _, r := range ranges {
			if d.Pos.Line >= r[0] && d.Pos.Line <= r[1] {
				return true
			}
		}
	}
	return false
}

// directiveRE: //iokvet:allow name(reason) — reason mandatory. The
// tail is left open so fixtures can carry trailing want comments.
var directiveRE = regexp.MustCompile(`^//iokvet:allow\s+([a-z*]+)\s*\(([^()]*)\)`)

// directives scans a package's comments for //iokvet:allow markers,
// building the suppression table. A directive suppresses its own line,
// and — when a statement or declaration starts on the following line —
// that node's whole span. Malformed directives and unknown analyzer
// names come back as findings of the pseudo-analyzer "directive".
func directives(pkg *Package, analyzers []*Analyzer) (suppression, []Diagnostic) {
	// Validate names against the full suite, not just the analyzers in
	// this run: a fixture exercising one analyzer may still carry
	// directives for another.
	known := map[string]bool{"*": true}
	for _, a := range All() {
		known[a.Name] = true
	}
	for _, a := range analyzers {
		known[a.Name] = true
	}
	sup := suppression{}
	var diags []Diagnostic
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				if !strings.HasPrefix(c.Text, "//iokvet:") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				m := directiveRE.FindStringSubmatch(c.Text)
				if m != nil && strings.TrimSpace(m[2]) == "" {
					m = nil // a directive without a reason is malformed
				}
				if m == nil {
					diags = append(diags, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  "malformed iokvet directive: want //iokvet:allow analyzer(reason)",
					})
					continue
				}
				name := m[1]
				if !known[name] {
					diags = append(diags, Diagnostic{
						Analyzer: "directive",
						Pos:      pos,
						Message:  fmt.Sprintf("iokvet directive names unknown analyzer %q", name),
					})
					continue
				}
				from, to := pos.Line, pos.Line
				if end, ok := nodeSpanStartingAt(pkg.Fset, f, pos.Line+1); ok {
					to = end
				}
				sup.add(name, pos.Filename, from, to)
			}
		}
	}
	return sup, diags
}

// nodeSpanStartingAt finds the outermost statement, declaration, or spec
// whose first line is `line` and returns its last line.
func nodeSpanStartingAt(fset *token.FileSet, f *ast.File, line int) (endLine int, ok bool) {
	ast.Inspect(f, func(n ast.Node) bool {
		if n == nil || ok {
			return !ok
		}
		switch n.(type) {
		case ast.Decl, ast.Stmt, ast.Spec:
			if fset.Position(n.Pos()).Line == line {
				endLine, ok = fset.Position(n.End()).Line, true
				return false
			}
		}
		return true
	})
	return endLine, ok
}

// InspectStack walks every file, calling fn with the ancestor stack
// (outermost first, n excluded). Returning false skips n's children.
func (p *Pass) InspectStack(fn func(stack []ast.Node, n ast.Node) bool) {
	var stack []ast.Node
	for _, f := range p.Files {
		ast.Inspect(f, func(n ast.Node) bool {
			if n == nil {
				stack = stack[:len(stack)-1]
				return true
			}
			if !fn(stack, n) {
				return false
			}
			stack = append(stack, n)
			return true
		})
	}
}
