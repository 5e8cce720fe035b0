package ringlwe

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// gateTargets are the platforms whose files count as callers: the ones CI
// builds or vets, and the ones the reuseport files are split by. A symbol
// is live if any target's build references it.
var gateTargets = []struct{ goos, goarch string }{
	{"linux", "amd64"},
	{"linux", "arm64"},
	{"linux", "386"},
	{"darwin", "arm64"},
	{"windows", "amd64"},
}

// internalAllowlist names the internal/ declarations that no non-test file
// references yet stay: test oracles a test compares a live path against,
// and paper-reproduction kernels whose M4 model cycles or output a paper
// table or ablation benchmark reports. Each entry gives its reason.
var internalAllowlist = map[string]string{
	// Test oracles.
	"ringlwe/internal/ntt.Tables.Naive":           "schoolbook product every NTT engine is checked against (TestEnginesMatchBarrett, FuzzEngineMulDifferential)",
	"ringlwe/internal/rns.Basis.Decompose":        "math/big CRT oracle: FuzzRNSRoundTrip decomposes its big-integer inputs with it",
	"ringlwe/internal/rns.Basis.Reconstruct":      "math/big CRT oracle: FuzzRNSRoundTrip compares every Runner result through it",
	"ringlwe/internal/ecc.Curve.ScalarMultAffine": "double-and-add oracle the x-only ladder is checked against (TestLadderMatchesAffineOracle)",
	"ringlwe/internal/ecc.Curve.OnCurve":          "curve equation the point generator and the group-law tests hold their points to",
	"ringlwe/internal/gauss.NewMatrix":            "float64-sigma construction TestNewMatrixFromSMatchesNewMatrix holds the live NewMatrixFromS to",
	"ringlwe/internal/rng.HealthCheck":            "FIPS 140-1 battery the xorshift, hash-DRBG and AES-CTR (OS-keyed and keyed) sources are checked with",
	"ringlwe/internal/zq.Modulus.IsPrimitiveRoot": "order check the root finders and the twiddle tables are held to (TestRootOfUnity, TestTablesInvariants)",
	// Paper-reproduction kernels.
	"ringlwe/internal/ntt.Tables.ForwardAlg3":    "the paper's Algorithm 3 verbatim, timed by BenchmarkTableIII_NTTAlg3Literal_P1",
	"ringlwe/internal/m4.Scheme.EncryptHalfword": "unpacked, unfused pipeline whose model cycles BenchmarkAblation_SchemeHalfword reports",
}

// TestInternalDeclsHaveCallers fails on every package-level declaration
// under internal/ that no non-test file of the module or of perfbench/
// references outside the declaration's own body, unless the allowlist
// names it.
func TestInternalDeclsHaveCallers(t *testing.T) {
	r, err := scanDeadDecls(".", "ringlwe", gateTargets)
	if err != nil {
		t.Fatal(err)
	}
	for key := range internalAllowlist {
		if _, ok := r.decls[key]; !ok {
			t.Errorf("allowlist names %s, which is not declared", key)
		} else if r.used[key] {
			t.Errorf("allowlist names %s, which has a non-test caller", key)
		}
	}
	for _, key := range r.dead() {
		if _, ok := internalAllowlist[key]; !ok {
			t.Errorf("%s: %s has no non-test caller", r.decls[key], key)
		}
	}
	// perfbench/ is the only caller of WithTracer: its module must load.
	if key := "ringlwe/internal/protocol.WithTracer"; !r.used[key] {
		t.Errorf("%s not seen as used: perfbench/ callers were not loaded", key)
	}
}

// TestDeadDeclGateControls runs the scan on a planted module: its one
// uncalled function and a function only its own body calls are flagged,
// while methods kept only by the interface they satisfy, a returned
// fmt.Stringer or the sort.Interface parameter of sort.Sort, are not.
func TestDeadDeclGateControls(t *testing.T) {
	r, err := scanDeadDecls(filepath.Join("testdata", "deadcode"), "deadcode", gateTargets[:1])
	if err != nil {
		t.Fatal(err)
	}
	got := strings.Join(r.dead(), " ")
	want := "deadcode/internal/lib.Recursive deadcode/internal/lib.Unused"
	if got != want {
		t.Fatalf("flagged %q, want %q", got, want)
	}
	for _, key := range []string{
		"deadcode/internal/lib.impl.String",
		"deadcode/internal/lib.byLen.Len",
		"deadcode/internal/lib.byLen.Less",
		"deadcode/internal/lib.byLen.Swap",
	} {
		if !r.used[key] {
			t.Errorf("interface-satisfying method %s not counted as used", key)
		}
	}
}

type deadScan struct {
	decls map[string]token.Position // internal/ declaration key -> where
	used  map[string]bool
}

func (r *deadScan) dead() []string {
	var out []string
	for key := range r.decls {
		if !r.used[key] {
			out = append(out, key)
		}
	}
	sort.Strings(out)
	return out
}

// scanDeadDecls type-checks every non-test package under root (module
// path modPath, nested modules such as perfbench/ included) once per
// target and reports the internal/ declarations and which of them some
// non-test file uses.
//
// The standard library is type-checked once, for the host and without
// cgo, and serves every target. A target other than the host may then
// name platform symbols the host's syscall package lacks, so type errors
// are fatal only on the host target, and in perfbench/ only on a linux
// host; elsewhere the uses that resolve still count, and CI's
// cross-builds compile those files.
func scanDeadDecls(root, modPath string, targets []struct{ goos, goarch string }) (*deadScan, error) {
	r := &deadScan{decls: map[string]token.Position{}, used: map[string]bool{}}
	std := &gateLoader{ctx: build.Default, fset: token.NewFileSet(), pkgs: map[string]*types.Package{}}
	std.ctx.CgoEnabled = false
	parsed := map[string]*ast.File{}
	for _, tg := range targets {
		l := &gateLoader{
			ctx: build.Default, fset: std.fset, parsed: parsed, std: std,
			root: root, modPath: modPath,
			pkgs:   map[string]*types.Package{},
			strict: tg.goos == runtime.GOOS && tg.goarch == runtime.GOARCH,
		}
		l.ctx.GOOS, l.ctx.GOARCH = tg.goos, tg.goarch
		if err := l.loadModule(); err != nil {
			return nil, fmt.Errorf("%s/%s: %w", tg.goos, tg.goarch, err)
		}
		l.mark(r)
	}
	return r, nil
}

// gateLoader type-checks packages from source for one build target: the
// module's packages with full type information, or, as the shared
// standard-library loader (std == nil), GOROOT packages with their
// function bodies skipped.
type gateLoader struct {
	ctx           build.Context
	fset          *token.FileSet
	parsed        map[string]*ast.File // module files, shared across targets
	std           *gateLoader
	root, modPath string
	pkgs          map[string]*types.Package // by import path
	strict        bool                      // type errors in the module are fatal
	mod           []*gatePkg
}

type gatePkg struct {
	pkg   *types.Package
	files []*ast.File
	info  *types.Info
}

func (l *gateLoader) loadModule() error {
	return filepath.WalkDir(l.root, func(path string, d os.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		name := d.Name()
		if path != l.root && (name == "testdata" || strings.HasPrefix(name, ".") || strings.HasPrefix(name, "_")) {
			return filepath.SkipDir
		}
		rel, _ := filepath.Rel(l.root, path)
		_, err = l.Import(strings.TrimSuffix(l.modPath+"/"+filepath.ToSlash(rel), "/."))
		if errors.Is(err, errNoGoFiles) {
			return nil
		}
		return err
	})
}

var errNoGoFiles = errors.New("no non-test Go files")

func (l *gateLoader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

func (l *gateLoader) ImportFrom(path, srcDir string, _ types.ImportMode) (*types.Package, error) {
	if path == "unsafe" {
		return types.Unsafe, nil
	}
	if p, ok := l.pkgs[path]; ok {
		if p == nil {
			return nil, fmt.Errorf("import cycle through %s", path)
		}
		return p, nil
	}
	if l.std == nil {
		bp, err := l.ctx.Import(path, srcDir, 0)
		if err != nil {
			return nil, err
		}
		return l.check(path, bp.Dir, bp.GoFiles)
	}
	if path != l.modPath && !strings.HasPrefix(path, l.modPath+"/") {
		return l.std.ImportFrom(path, srcDir, 0)
	}
	dir := filepath.Join(l.root, filepath.FromSlash(strings.TrimPrefix(path, l.modPath)))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var names []string
	for _, e := range ents {
		n := e.Name()
		if e.IsDir() || !strings.HasSuffix(n, ".go") || strings.HasSuffix(n, "_test.go") {
			continue
		}
		if ok, err := l.ctx.MatchFile(dir, n); err != nil {
			return nil, err
		} else if ok {
			names = append(names, n)
		}
	}
	if len(names) == 0 {
		return nil, errNoGoFiles
	}
	return l.check(path, dir, names)
}

func (l *gateLoader) check(path, dir string, names []string) (*types.Package, error) {
	l.pkgs[path] = nil
	var files []*ast.File
	for _, n := range names {
		fn := filepath.Join(dir, n)
		f, ok := l.parsed[fn]
		if !ok {
			var err error
			if f, err = parser.ParseFile(l.fset, fn, nil, parser.SkipObjectResolution); err != nil {
				return nil, err
			}
			if l.parsed != nil {
				l.parsed[fn] = f
			}
		}
		files = append(files, f)
	}
	// perfbench/ builds on linux only (it reads the thread CPU clock and
	// rusage through linux syscalls), so its type errors elsewhere are not.
	strict := l.std == nil || l.strict &&
		(l.ctx.GOOS == "linux" || !strings.HasPrefix(path+"/", l.modPath+"/perfbench/"))
	var firstErr error
	conf := types.Config{
		Importer:         l,
		Sizes:            types.SizesFor("gc", l.ctx.GOARCH),
		IgnoreFuncBodies: l.std == nil,
		Error: func(err error) {
			if firstErr == nil && strict {
				firstErr = err
			}
		},
	}
	var info *types.Info
	if l.std != nil {
		info = &types.Info{
			Types: map[ast.Expr]types.TypeAndValue{},
			Defs:  map[*ast.Ident]types.Object{},
			Uses:  map[*ast.Ident]types.Object{},
		}
	}
	pkg, _ := conf.Check(path, l.fset, files, info)
	if firstErr != nil {
		return nil, firstErr
	}
	l.pkgs[path] = pkg
	if l.std != nil {
		l.mod = append(l.mod, &gatePkg{pkg, files, info})
	}
	return pkg, nil
}

// gateDecl is one internal/ declaration and the source spans that make
// up its own body: a function's declaration, a value's spec, or a type's
// spec together with its methods.
type gateDecl struct {
	key   string
	spans [][2]token.Pos
}

func (d *gateDecl) contains(p token.Pos) bool {
	for _, s := range d.spans {
		if s[0] <= p && p < s[1] {
			return true
		}
	}
	return false
}

// mark records this target's internal/ declarations in r and which of
// them a use outside their own body, or an interface, keeps alive.
func (l *gateLoader) mark(r *deadScan) {
	decls := map[types.Object]*gateDecl{}
	internal := l.modPath + "/internal/"
	add := func(obj types.Object, key string, node ast.Node) *gateDecl {
		d := decls[obj]
		if d == nil {
			d = &gateDecl{key: key}
			decls[obj] = d
			r.decls[key] = l.fset.Position(obj.Pos())
		}
		d.spans = append(d.spans, [2]token.Pos{node.Pos(), node.End()})
		return d
	}
	var methods []*types.Func
	for _, p := range l.mod {
		if !strings.HasPrefix(p.pkg.Path()+"/", internal) {
			continue
		}
		for _, f := range p.files {
			for _, decl := range f.Decls {
				switch decl := decl.(type) {
				case *ast.FuncDecl:
					fn := p.info.Defs[decl.Name].(*types.Func)
					if decl.Recv == nil {
						if decl.Name.Name != "init" {
							add(fn, p.pkg.Path()+"."+fn.Name(), decl)
						}
						continue
					}
					recv := recvNamed(fn)
					add(fn, p.pkg.Path()+"."+recv.Obj().Name()+"."+fn.Name(), decl)
					add(recv.Obj(), p.pkg.Path()+"."+recv.Obj().Name(), decl)
					methods = append(methods, fn)
				case *ast.GenDecl:
					for _, spec := range decl.Specs {
						var names []*ast.Ident
						switch spec := spec.(type) {
						case *ast.TypeSpec:
							names = []*ast.Ident{spec.Name}
						case *ast.ValueSpec:
							names = spec.Names
						}
						for _, id := range names {
							if id.Name != "_" {
								obj := p.info.Defs[id]
								add(obj, p.pkg.Path()+"."+obj.Name(), spec)
							}
						}
					}
				}
			}
		}
	}
	ifaces := map[*types.Interface]bool{}
	addIface := func(t types.Type) {
		if it, ok := t.Underlying().(*types.Interface); ok && it.NumMethods() > 0 {
			ifaces[it] = true
		}
	}
	addIface(types.Universe.Lookup("error").Type())
	for path, names := range map[string][]string{"fmt": {"Stringer"}, "io": {"Reader", "Writer", "Closer"}} {
		pkg, err := l.Import(path)
		if err != nil {
			panic(err) // the standard library always loads
		}
		for _, n := range names {
			addIface(pkg.Scope().Lookup(n).Type())
		}
	}
	for _, p := range l.mod {
		for id, obj := range p.info.Uses {
			if d := decls[obj]; d != nil && !d.contains(id.Pos()) {
				r.used[d.key] = true
			}
		}
		// Every interface type the module's code names, in a declaration,
		// a signature or a type assertion, holds the methods of the values
		// it carries.
		// So does every interface parameter of a function the code names,
		// the standard library's sort.Interface or http.Handler included.
		for _, tv := range p.info.Types {
			if tv.Type == nil {
				continue
			}
			addIface(tv.Type)
			if sig, ok := tv.Type.(*types.Signature); ok {
				params := sig.Params()
				for i := 0; i < params.Len(); i++ {
					t := params.At(i).Type()
					if s, ok := t.(*types.Slice); ok && sig.Variadic() && i == params.Len()-1 {
						t = s.Elem()
					}
					addIface(t)
				}
			}
		}
	}
	for _, fn := range methods {
		d := decls[fn]
		if r.used[d.key] {
			continue
		}
		recv := recvNamed(fn)
		for it := range ifaces {
			if hasMethod(it, fn.Name()) &&
				(types.Implements(recv, it) || types.Implements(types.NewPointer(recv), it)) {
				r.used[d.key] = true
				break
			}
		}
	}
}

func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func hasMethod(it *types.Interface, name string) bool {
	for i := 0; i < it.NumMethods(); i++ {
		if it.Method(i).Name() == name {
			return true
		}
	}
	return false
}
