package gs3

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"
)

// The two lints below read the same production source: every non-test
// Go file under the module root, found by one directory walk, so a new
// cmd/, examples/ or internal/ directory is linted without being listed.

// modulePath is the import path of the module rooted here. perfbench, a
// nested module, replaces it with this same tree.
const modulePath = "gs3"

// readerOnlyDir holds production code that reads the module's API but is
// not linted itself: the benchmark module, which changes only on its own.
const readerOnlyDir = "perfbench"

// source is the tree's production code, parsed once.
type source struct {
	fset  *token.FileSet
	dirs  []string // every package directory, in walk order ("." first)
	files map[string][]*ast.File
}

func parseSource(t *testing.T) *source {
	t.Helper()
	src := &source{fset: token.NewFileSet(), files: map[string][]*ast.File{}}
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			// The directories the go tool ignores.
			name := d.Name()
			if path != "." && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(src.fset, path, nil, parser.ParseComments)
		if err != nil {
			return err
		}
		dir := filepath.Dir(path)
		if src.files[dir] == nil {
			src.dirs = append(src.dirs, dir)
		}
		src.files[dir] = append(src.files[dir], f)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return src
}

// linted reports whether the lints hold dir's declarations to their rules.
func linted(dir string) bool {
	return dir != readerOnlyDir && !strings.HasPrefix(dir, readerOnlyDir+string(filepath.Separator))
}

// TestDocComments is the doc-comment lint pass over every package of the
// module: each exported symbol must carry a doc comment. The concurrency
// model depends on the thread-safety contracts this godoc states — the
// single-goroutine event engine, the node store, the runner's fan-out —
// and every other package follows the same rule.
func TestDocComments(t *testing.T) {
	src := parseSource(t)
	for _, dir := range src.dirs {
		if !linted(dir) {
			continue
		}
		for _, file := range src.files[dir] {
			checkFileDocs(t, src.fset, file)
		}
	}
}

// receiverExported reports whether fn is a plain function or a method
// whose receiver type is itself exported.
func receiverExported(fn *ast.FuncDecl) bool {
	recv := receiverType(fn)
	return recv == nil || recv.IsExported()
}

// receiverType returns the name of method fn's receiver type, or nil
// for a plain function.
func receiverType(fn *ast.FuncDecl) *ast.Ident {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return nil
	}
	typ := fn.Recv.List[0].Type
	for {
		switch tt := typ.(type) {
		case *ast.StarExpr:
			typ = tt.X
		case *ast.IndexExpr:
			typ = tt.X
		case *ast.Ident:
			return tt
		default:
			return nil
		}
	}
}

func checkFileDocs(t *testing.T, fset *token.FileSet, file *ast.File) {
	t.Helper()
	report := func(pos token.Pos, what string) {
		p := fset.Position(pos)
		t.Errorf("%s:%d: exported %s has no doc comment", p.Filename, p.Line, what)
	}
	for _, decl := range file.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			// Methods on unexported types (e.g. heap plumbing) are not
			// part of the package's godoc surface.
			if d.Name.IsExported() && d.Doc == nil && receiverExported(d) {
				report(d.Pos(), "func "+d.Name.Name)
			}
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					if s.Name.IsExported() && d.Doc == nil && s.Doc == nil {
						report(s.Pos(), "type "+s.Name.Name)
					}
				case *ast.ValueSpec:
					for _, n := range s.Names {
						if n.IsExported() && d.Doc == nil && s.Doc == nil {
							report(s.Pos(), "value "+n.Name)
						}
					}
				}
			}
		}
	}
}

// testHooks are the production identifiers that only tests read, each
// kept for the reason given. An entry that production code reads, or
// that no longer exists, fails the lint.
var testHooks = map[string]string{
	"core.Network.SetSweepCache":   "switches the sweep cache off: the brute-force reference of the lockstep suites",
	"core.Network.StopMaintenance": "ends the heartbeat chain: the engine-drain contract",
	"core.Network.SweepWork":       "counts sweep bodies, replays and ASSOCIATE_ORG_RESP choices: the work pins",
	"sim.Engine.Pending":           "read by runLockstep and the engine lockstep",
	"sim.Engine.NextEventTime":     "read by runLockstep and the engine lockstep",
}

// linkFields are the fields of core.Node that link a node into the head
// graph. Only heads read other nodes' links, so the protocol reports a
// write to them through touchLinks, which leaves the associate view of
// the topology epochs alone, where every other write keeps touch.
// linkHelpers, the one file of the link helpers, is the only place that
// writes them or calls touchLinks.
var linkFields = []string{"Parent", "ParentIL", "Hops", "Children", "Neighbors"}

const linkHelpers = "internal/core/links.go"

// TestLinkWritesStayInLinkHelpers fails on an assignment, increment,
// element write or address-taking of a core.Node link field, or a call
// of touchLinks, anywhere in production code but linkHelpers: a link
// write outside it could report with touch, and wake associate caches
// for nothing, and a touchLinks outside it could report a write that
// associates read. The keys of a Node literal are not writes: they set
// up a node before the medium holds it (AddNode).
func TestLinkWritesStayInLinkHelpers(t *testing.T) {
	src := parseSource(t)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	core := corePackage(t, src, info)
	fields := nodeFields(core, linkFields...)
	touchLinks, _, _ := types.LookupFieldOrMethod(core.Scope().Lookup("Network").Type(), true, core, "touchLinks")
	if len(fields) != len(linkFields) || touchLinks == nil {
		t.Fatalf("core.Node has %d of the link fields %v, and touchLinks is %v", len(fields), linkFields, touchLinks)
	}
	writes, calls := 0, 0
	for _, dir := range src.dirs {
		for _, f := range src.files[dir] {
			inHelpers := filepath.ToSlash(src.fset.Position(f.Pos()).Filename) == linkHelpers
			found := func(pos token.Pos, what string) {
				if !inHelpers {
					t.Errorf("%s: %s outside %s", src.fset.Position(pos), what, linkHelpers)
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if call, ok := n.(*ast.CallExpr); ok {
					if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == touchLinks {
						calls++
						found(call.Pos(), "a call of touchLinks")
					}
				}
				for _, e := range writeTargets(n) {
					if obj := writtenField(info, fields, e); obj != nil {
						writes++
						found(e.Pos(), "a write to Node."+obj.Name())
					}
				}
				return true
			})
		}
	}
	if writes == 0 || calls == 0 {
		t.Errorf("found %d link-field writes and %d touchLinks calls: the lint checks nothing", writes, calls)
	}
}

// statusWriters are the only functions that may write core.Node.Status.
// setStatus keeps the medium's head-role index in step with it, and
// Kill writes StatusDead in the call that takes the node off the
// medium. The sweep fast path reads liveness and the head role from
// the medium alone (sweepOnce), so a write anywhere else could leave
// the node's status and the medium's answer apart.
var statusWriters = []string{"core.Network.setStatus", "core.Network.Kill"}

// TestStatusWritesStayInSetStatusAndKill fails on an assignment,
// increment or address-taking of core.Node.Status anywhere in
// production code but the statusWriters. The keys of a Node literal are
// not writes: they set up a node before the medium holds it (AddNode).
func TestStatusWritesStayInSetStatusAndKill(t *testing.T) {
	src := parseSource(t)
	info := &types.Info{Uses: map[*ast.Ident]types.Object{}}
	fields := nodeFields(corePackage(t, src, info), "Status")
	if len(fields) != 1 {
		t.Fatal("core.Node has no Status field")
	}
	writes := map[string]int{}
	for _, dir := range src.dirs {
		for _, f := range src.files[dir] {
			for _, decl := range f.Decls {
				name := f.Name.Name // a package-level declaration
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name = funcName(f.Name.Name, fn)
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					for _, e := range writeTargets(n) {
						if writtenField(info, fields, e) == nil {
							continue
						}
						writes[name]++
						if !slices.Contains(statusWriters, name) {
							t.Errorf("%s: %s writes Node.Status; only %v may", src.fset.Position(e.Pos()), name, statusWriters)
						}
					}
					return true
				})
			}
		}
	}
	for _, name := range statusWriters {
		if writes[name] == 0 {
			t.Errorf("%s writes no Node.Status: the lint checks nothing", name)
		}
	}
}

// corePackage type-checks the tree into info and returns package core.
func corePackage(t *testing.T, src *source, info *types.Info) *types.Package {
	t.Helper()
	for _, pkg := range typeCheck(t, src, info) {
		if pkg.Path() == modulePath+"/internal/core" {
			return pkg
		}
	}
	t.Fatal("package core not found")
	return nil
}

// nodeFields returns the fields of core.Node with the given names.
func nodeFields(core *types.Package, names ...string) map[types.Object]bool {
	node := core.Scope().Lookup("Node").Type().Underlying().(*types.Struct)
	fields := map[types.Object]bool{}
	for i := 0; i < node.NumFields(); i++ {
		if f := node.Field(i); slices.Contains(names, f.Name()) {
			fields[f] = true
		}
	}
	return fields
}

// writeTargets returns the expressions n writes: the left-hand sides of
// an assignment, the operand of an increment or decrement, and the
// operand of an address-taking.
func writeTargets(n ast.Node) []ast.Expr {
	switch n := n.(type) {
	case *ast.AssignStmt:
		return n.Lhs
	case *ast.IncDecStmt:
		return []ast.Expr{n.X}
	case *ast.UnaryExpr:
		if n.Op == token.AND {
			return []ast.Expr{n.X}
		}
	}
	return nil
}

// writtenField returns the field of fields that the write target e
// names, through its selector or an element of it, or nil.
func writtenField(info *types.Info, fields map[types.Object]bool, e ast.Expr) types.Object {
	e = ast.Unparen(e)
	if ix, ok := e.(*ast.IndexExpr); ok {
		e = ast.Unparen(ix.X)
	}
	if sel, ok := e.(*ast.SelectorExpr); ok && fields[info.Uses[sel.Sel]] {
		return info.Uses[sel.Sel]
	}
	return nil
}

// funcName names a function declaration of package pkg as pkg.Name, or
// a method as pkg.Type.Name.
func funcName(pkg string, fn *ast.FuncDecl) string {
	if recv := receiverType(fn); recv != nil {
		return pkg + "." + recv.Name + "." + fn.Name.Name
	}
	return pkg + "." + fn.Name.Name
}

// interfaceMethods are methods the standard library calls through its
// own interfaces (fmt.Stringer, error, json.Marshaler, ...); production
// code declares no interfaces of its own.
var interfaceMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "MarshalJSON": true, "UnmarshalJSON": true,
}

// TestEveryIdentifierHasAProductionReader fails on production code that
// only tests read: every package-level identifier, method and struct
// field declared outside the public gs3 API must have a reader in some
// non-test file, perfbench included. Writes are not reads: assignment
// targets, ++/-- operands and struct-literal keys. Code nothing runs
// except a test does not pay rent; it is deleted, moved into the test
// that needs it, or named in testHooks with its reason.
func TestEveryIdentifierHasAProductionReader(t *testing.T) {
	src := parseSource(t)
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkgs := typeCheck(t, src, info)
	reads := productionReads(src, info)

	hooksFound := map[string]bool{}
	var findings []string
	check := func(obj types.Object, name string) {
		at, read := reads[obj]
		if _, hook := testHooks[name]; hook {
			hooksFound[name] = true
			if read {
				t.Errorf("testHooks[%q]: read by production code at %s", name, src.fset.Position(at))
			}
			return
		}
		// The root package's exported names are the public library surface.
		if read || obj.Name() == "_" || obj.Pkg().Path() == modulePath && obj.Exported() {
			return
		}
		p := src.fset.Position(obj.Pos())
		findings = append(findings, fmt.Sprintf("%s:%d %s", p.Filename, p.Line, name))
	}
	for _, pkg := range pkgs {
		scope := pkg.Scope()
		for _, n := range scope.Names() {
			obj := scope.Lookup(n)
			name := pkg.Name() + "." + n
			if _, isFunc := obj.(*types.Func); isFunc && (n == "main" || n == "init") {
				continue
			}
			check(obj, name)
			tn, ok := obj.(*types.TypeName)
			if !ok || tn.IsAlias() {
				continue
			}
			named := tn.Type().(*types.Named)
			for i := 0; i < named.NumMethods(); i++ {
				if m := named.Method(i); !interfaceMethods[m.Name()] {
					check(m, name+"."+m.Name())
				}
			}
			if st, ok := named.Underlying().(*types.Struct); ok {
				for i := 0; i < st.NumFields(); i++ {
					f := st.Field(i)
					check(f, name+"."+f.Name())
				}
			}
		}
	}
	sort.Strings(findings)
	for _, f := range findings {
		t.Errorf("%s: no production code reads it", f)
	}
	for name := range testHooks {
		if !hooksFound[name] {
			t.Errorf("testHooks[%q]: no such identifier", name)
		}
	}
}

// floatToInt names the functions allowed to convert a floating-point
// value to an integer type, each with why its argument fits, or "open:"
// and an input that breaks it. The Go spec leaves the result of such a
// conversion implementation-dependent when the value does not fit, so
// one that can overflow may answer differently per architecture. An
// entry whose function holds no such conversion fails the lint.
var floatToInt = map[string]string{
	"baseline.buildAdjacency": "open: HopCluster with a txRange of 1e-300, which it accepts; its one caller passes SR/3 and a finite field",
	"core.StrengthenCell":     "open: R = 1 with Rt = 1e-300, which Config.Validate accepts (R/(√3·Rt) ≈ 6e299)",
	"core.Corrupt":            "fits: a CorruptHops delta of NaN leaves Hops unchanged, and any other is saturated into [0, unknownHops] before the conversion",
	"exp.StructureLifetime":   "fits: it returns an error unless the static lifetime energy/(80·energy/400) is finite and positive, which bounds it to [2.5, 7.5] (5 but for subnormal rounding), and converts that times the mean cell size plus 20, at most 7.5·(nodes + 20)",
	"exp.VsHopCluster":        "fits: r/txRange = 3R/SR < √3, since SR = √3R + 2Rt",
	"field.Grid":              "fits: it converts its row and column counts only once their product is at most 2³¹−1",
	"hexlat.roundAxial":       "open: Lattice.Nearest of the point (1e300, 1e300), or of NaN",
	"netsim.RepopulateDisk":   "open: a radius of 1e300 with spacing 1, taken unchecked",
	"rng.Poisson":             "fits: it converts only a rounded draw in [0, float64(math.MaxInt)), returning 0 below, math.MaxInt above and 0 for a NaN lambda",
	"spatial.KeyOf":           "fits: it converts only cell coordinates it has checked to be within ±2³⁰",
	"spatial.cell":            "fits: it clamps its argument to ±2³⁰, and its callers never pass NaN",
	"stats.Percentile":        "fits: p is in (0, 100) past its NaN and range guards, so 0 ≤ rank ≤ len(sorted)−1",
}

// TestFloatToIntConversions fails on a conversion of a non-constant
// floating-point value to an integer type anywhere in production code
// but the functions floatToInt names.
func TestFloatToIntConversions(t *testing.T) {
	src := parseSource(t)
	info := &types.Info{Types: map[ast.Expr]types.TypeAndValue{}}
	typeCheck(t, src, info)
	is := func(e ast.Expr, kind types.BasicInfo) bool {
		b, ok := info.Types[e].Type.Underlying().(*types.Basic)
		return ok && b.Info()&kind != 0
	}
	found := map[string]bool{}
	for _, dir := range src.dirs {
		if !linted(dir) {
			continue
		}
		for _, f := range src.files[dir] {
			for _, decl := range f.Decls {
				name := f.Name.Name // a package-level declaration
				if fn, ok := decl.(*ast.FuncDecl); ok {
					name += "." + fn.Name.Name
				}
				ast.Inspect(decl, func(n ast.Node) bool {
					call, ok := n.(*ast.CallExpr)
					if !ok || len(call.Args) != 1 || !info.Types[call.Fun].IsType() ||
						info.Types[call.Args[0]].Value != nil || !is(call.Fun, types.IsInteger) || !is(call.Args[0], types.IsFloat) {
						return true
					}
					if _, ok := floatToInt[name]; ok {
						found[name] = true
					} else {
						t.Errorf("%s: %s converts a float to %s", src.fset.Position(call.Pos()), name, info.Types[call.Fun].Type)
					}
					return true
				})
			}
		}
	}
	for name := range floatToInt {
		if !found[name] {
			t.Errorf("floatToInt[%q]: no float-to-integer conversion there", name)
		}
	}
}

// TestProductionReadsSkipsFieldCopies runs productionReads on a small
// in-memory package. A field that only fills the same field of another
// composite literal, as T{Copied: x.Copied} does, travels between
// structs without being read; a field whose value fills a different
// field is read.
func TestProductionReadsSkipsFieldCopies(t *testing.T) {
	const code = `package p

type T struct{ Copied, Read, Filled int }

func Copy(x T) T { return T{Copied: x.Copied, Filled: x.Read} }
`
	fset := token.NewFileSet()
	file, err := parser.ParseFile(fset, "p.go", code, 0)
	if err != nil {
		t.Fatal(err)
	}
	info := &types.Info{
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	pkg, err := (&types.Config{}).Check("p", fset, []*ast.File{file}, info)
	if err != nil {
		t.Fatal(err)
	}
	src := &source{fset: fset, dirs: []string{"p"}, files: map[string][]*ast.File{"p": {file}}}
	reads := productionReads(src, info)
	st := pkg.Scope().Lookup("T").Type().Underlying().(*types.Struct)
	for i, want := range []bool{false, true, false} {
		if _, got := reads[st.Field(i)]; got != want {
			t.Errorf("T.%s read = %v, want %v", st.Field(i).Name(), got, want)
		}
	}
}

// importPath maps a package directory of the tree to its import path.
func importPath(dir string) string {
	if dir == "." {
		return modulePath
	}
	return modulePath + "/" + filepath.ToSlash(dir)
}

// typeCheck type-checks the tree's production code, recording into info,
// and returns the linted packages in walk order.
func typeCheck(t *testing.T, src *source, info *types.Info) []*types.Package {
	t.Helper()
	imp := &moduleImporter{
		src:  src,
		std:  importer.ForCompiler(src.fset, "source", nil),
		info: info,
		pkgs: map[string]*types.Package{},
	}
	var pkgs []*types.Package
	for _, dir := range src.dirs {
		pkg, err := imp.Import(importPath(dir))
		if err != nil {
			t.Fatal(err)
		}
		if linted(dir) {
			pkgs = append(pkgs, pkg)
		}
	}
	return pkgs
}

// moduleImporter type-checks the tree's packages from the parsed source,
// recording uses in info, and takes the standard library from GOROOT
// source, so the lint needs neither a build nor a network.
type moduleImporter struct {
	src  *source
	std  types.Importer
	info *types.Info
	pkgs map[string]*types.Package
}

func (m *moduleImporter) Import(path string) (*types.Package, error) {
	if path != modulePath && !strings.HasPrefix(path, modulePath+"/") {
		return m.std.Import(path)
	}
	if pkg, ok := m.pkgs[path]; ok {
		return pkg, nil
	}
	dir := "."
	if path != modulePath {
		dir = filepath.FromSlash(strings.TrimPrefix(path, modulePath+"/"))
	}
	files := m.src.files[dir]
	if len(files) == 0 {
		return nil, fmt.Errorf("import %q: no production files in %s", path, dir)
	}
	conf := types.Config{Importer: m}
	pkg, err := conf.Check(path, m.src.fset, files, m.info)
	if err != nil {
		return nil, err
	}
	m.pkgs[path] = pkg
	return pkg, nil
}

// productionReads maps each object the production source reads to the
// position of its first read. A field reached through an embedded field
// reads the embedded field too. A field that only fills the same field
// of a composite literal, as in T{F: x.F}, is copied, not read.
func productionReads(src *source, info *types.Info) map[types.Object]token.Pos {
	writes := map[*ast.Ident]bool{}
	target := func(e ast.Expr) {
		e = ast.Unparen(e)
		if sel, ok := e.(*ast.SelectorExpr); ok {
			e = sel.Sel
		}
		if id, ok := e.(*ast.Ident); ok {
			writes[id] = true
		}
	}
	for _, dir := range src.dirs {
		for _, f := range src.files[dir] {
			ast.Inspect(f, func(n ast.Node) bool {
				switch n := n.(type) {
				case *ast.AssignStmt:
					for _, lhs := range n.Lhs {
						target(lhs)
					}
				case *ast.IncDecStmt:
					target(n.X)
				case *ast.KeyValueExpr:
					if id, ok := n.Key.(*ast.Ident); ok {
						if v, ok := info.Uses[id].(*types.Var); ok && v.IsField() {
							writes[id] = true
							// T{F: x.F} copies field F, it does not read it.
							if sel, ok := ast.Unparen(n.Value).(*ast.SelectorExpr); ok && info.Uses[sel.Sel] == v {
								writes[sel.Sel] = true
							}
						}
					}
				}
				return true
			})
		}
	}
	reads := map[types.Object]token.Pos{}
	read := func(obj types.Object, pos token.Pos) {
		switch o := obj.(type) {
		case *types.Func:
			obj = o.Origin()
		case *types.Var:
			obj = o.Origin()
		}
		if old, ok := reads[obj]; !ok || pos < old {
			reads[obj] = pos
		}
	}
	for id, obj := range info.Uses {
		if !writes[id] {
			read(obj, id.Pos())
		}
	}
	for sel, s := range info.Selections {
		typ := s.Recv()
		idx := s.Index()
		for _, i := range idx[:len(idx)-1] {
			if p, ok := typ.Underlying().(*types.Pointer); ok {
				typ = p.Elem()
			}
			f := typ.Underlying().(*types.Struct).Field(i)
			read(f, sel.Sel.Pos())
			typ = f.Type()
		}
	}
	return reads
}
