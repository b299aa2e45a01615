package pargraph

import (
	"bufio"
	"bytes"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// unreachableAllowed are the internal packages no command, example or
// the root package imports, each kept for a reason of its own.
var unreachableAllowed = map[string]string{
	"pargraph/internal/cmdtest": "a helper only the commands' tests import",
	"pargraph/internal/model":   "the paper's §2 cost model, checked against the simulators' counters by its own tests",
}

// funcAllowed are the internal functions no command, example or
// perfbench binary links, each kept for a reason of its own. Keys are
// linker names: pkg.F, pkg.(*T).M or pkg.T.M.
var funcAllowed = map[string]string{
	"pargraph/internal/mta.CycleSim":                 "the cycle-exact barrel simulator the fluid region model is validated against (S18)",
	"pargraph/internal/mta.CycleResult.Utilization":  "the cycle-exact oracle's utilisation, compared with the fluid model's",
	"pargraph/internal/mta.(*Machine).RecordRegions": "records real kernels' regions for the cycle-exact oracle to replay",
	"pargraph/internal/mta.(*Machine).Recorded":      "reads back what RecordRegions recorded",
	"pargraph/internal/graph.Chain":                  "a fixture with a known answer: one component, a path",
	"pargraph/internal/graph.Star":                   "a fixture with a known answer: one component, one hub",
	"pargraph/internal/graph.KnownComponents":        "a fixture with known components, the oracle for every labelling",
	"pargraph/internal/mta.(*Machine).Serial":        "an MTA primitive (one stream, no overlap) the machine tests exercise",
	"pargraph/internal/mta.(*Thread).SyncLoad":       "an MTA primitive (full/empty-bit load) the machine tests exercise",
	"pargraph/internal/mta.(*Thread).SyncStore":      "an MTA primitive (full/empty-bit store) the machine tests exercise",
	"pargraph/internal/mta.(*Thread).StoreN":         "an MTA primitive (bulk store) the machine tests exercise",
}

// TestEveryInternalPackageIsReachable keeps dead packages from piling
// up: every internal package must be a dependency of a command, an
// example or the root package, or be listed in unreachableAllowed.
func TestEveryInternalPackageIsReachable(t *testing.T) {
	goList := func(args ...string) []string {
		t.Helper()
		out, err := exec.Command("go", append([]string{"list"}, args...)...).Output()
		if err != nil {
			t.Fatalf("go list %s: %v", strings.Join(args, " "), err)
		}
		return strings.Fields(string(out))
	}
	reached := make(map[string]bool)
	for _, p := range goList("-deps", "./cmd/...", "./examples/...", ".") {
		reached[p] = true
	}
	for _, p := range goList("./internal/...") {
		_, allowed := unreachableAllowed[p]
		switch {
		case !reached[p] && !allowed:
			t.Errorf("%s is imported by no command, example or the root package; delete it or use it", p)
		case reached[p] && allowed:
			t.Errorf("%s is reachable now; drop it from unreachableAllowed", p)
		}
	}
}

// TestEveryInternalFunctionIsLinked keeps dead functions from piling up
// inside live packages: every function declared in a non-test file
// under internal/ must be linked into a command, an example or
// perfbench, or be listed in funcAllowed. The binaries are built with
// inlining off in this module, so an inlined callee keeps its symbol.
func TestEveryInternalFunctionIsLinked(t *testing.T) {
	dir := t.TempDir()
	build := func(pkgDir, out string, pkgs ...string) {
		t.Helper()
		args := append([]string{"build", "-gcflags=pargraph/...=-l", "-o", out}, pkgs...)
		cmd := exec.Command("go", args...)
		cmd.Dir = pkgDir
		if msg, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, msg)
		}
	}
	build(".", dir+string(filepath.Separator), "./cmd/...", "./examples/...")
	build("perfbench", filepath.Join(dir, "perfbench"), ".")

	bins, err := filepath.Glob(filepath.Join(dir, "*"))
	if err != nil || len(bins) == 0 {
		t.Fatalf("no binaries in %s: %v", dir, err)
	}
	linked := make(map[string]bool)
	for _, bin := range bins {
		out, err := exec.Command("go", "tool", "nm", bin).Output()
		if err != nil {
			t.Fatalf("go tool nm %s: %v", bin, err)
		}
		sc := bufio.NewScanner(bytes.NewReader(out))
		for sc.Scan() {
			if name, ok := textSymbol(sc.Text()); ok && strings.HasPrefix(name, "pargraph/internal/") {
				linked[stripTypeArgs(name)] = true
			}
		}
	}

	var found []string
	declared := make(map[string]bool)
	fset := token.NewFileSet()
	err = filepath.WalkDir("internal", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if d.Name() == "testdata" {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		pkg := "pargraph/" + filepath.ToSlash(filepath.Dir(path))
		if _, ok := unreachableAllowed[pkg]; ok {
			return nil
		}
		file, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		for _, decl := range file.Decls {
			fn, ok := decl.(*ast.FuncDecl)
			if !ok || fn.Name.Name == "init" || fn.Name.Name == "_" {
				continue
			}
			names := linkerNames(pkg, fn)
			isLinked := false
			for _, n := range names {
				isLinked = isLinked || linked[n]
			}
			_, allowed := funcAllowed[names[0]]
			pos := fset.Position(fn.Pos())
			switch {
			case !isLinked && !allowed:
				found = append(found, fmt.Sprintf("%s:%d %s is linked into no command, example or perfbench; delete it or use it", pos.Filename, pos.Line, names[0]))
			case isLinked && allowed:
				found = append(found, fmt.Sprintf("%s:%d %s is linked now; drop it from funcAllowed", pos.Filename, pos.Line, names[0]))
			}
			declared[names[0]] = true
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for name := range funcAllowed {
		if !declared[name] {
			found = append(found, fmt.Sprintf("%s is in funcAllowed but declared nowhere under internal/", name))
		}
	}
	sort.Strings(found)
	for _, f := range found {
		t.Error(f)
	}
}

// TestTextSymbol: the link check reads a function symbol whatever its
// shape names hold, so a generic function instantiated only with
// struct shapes still counts as linked.
func TestTextSymbol(t *testing.T) {
	cases := []struct {
		line, want string
		ok         bool
	}{
		{"  57ffe0 T pargraph/internal/sim.(*Machine).Run", "pargraph/internal/sim.(*Machine).Run", true},
		{"  589400 T pargraph/internal/binenc.AppendList[go.shape.struct { Key string; SHA256 string; Bytes int64 }]",
			"pargraph/internal/binenc.AppendList[go.shape.struct { Key string; SHA256 string; Bytes int64 }]", true},
		{"  5a1000 T pargraph/internal/harness.(*tapeShelf).take", "pargraph/internal/harness.(*tapeShelf).take", true},
		{"  6c2d40 D pargraph/internal/spec.fields", "", false},
		{"  6c2d40 R pargraph/internal/x.F[go.shape.struct { A int }]", "", false},
		{"         U pargraph/internal/x.F", "", false},
		{"         U pargraph/internal/x.F[go.shape.struct { A int }]", "", false},
		{"", "", false},
	}
	for _, c := range cases {
		name, ok := textSymbol(c.line)
		if name != c.want || ok != c.ok {
			t.Errorf("textSymbol(%q) = %q, %t; want %q, %t", c.line, name, ok, c.want, c.ok)
		}
	}
	const spaced = "pargraph/internal/binenc.AppendList[go.shape.struct { Key string; SHA256 string; Bytes int64 }]"
	if got := stripTypeArgs(spaced); got != "pargraph/internal/binenc.AppendList" {
		t.Errorf("stripTypeArgs(%q) = %q", spaced, got)
	}
}

// linkerNames gives the symbols the linker uses for fn in package pkg:
// pkg.F, pkg.(*T).M or pkg.T.M. A method on a value receiver may be
// linked only through its pointer wrapper, so it has both names, the
// value one first.
func linkerNames(pkg string, fn *ast.FuncDecl) []string {
	if fn.Recv == nil || len(fn.Recv.List) == 0 {
		return []string{pkg + "." + fn.Name.Name}
	}
	typ := fn.Recv.List[0].Type
	ptr := false
	if star, ok := typ.(*ast.StarExpr); ok {
		typ, ptr = star.X, true
	}
	switch g := typ.(type) {
	case *ast.IndexExpr:
		typ = g.X
	case *ast.IndexListExpr:
		typ = g.X
	}
	recv := typ.(*ast.Ident).Name
	if ptr {
		return []string{pkg + ".(*" + recv + ")." + fn.Name.Name}
	}
	return []string{pkg + "." + recv + "." + fn.Name.Name, pkg + ".(*" + recv + ")." + fn.Name.Name}
}

// textSymbol returns the name in one line of `go tool nm` output,
// "addr T name", when the line is a text (function) symbol. The name is
// the rest of the line after the type letter: a generic instantiation's
// shape name may hold spaces, as in
// pkg.F[go.shape.struct { Key string; Bytes int64 }].
func textSymbol(line string) (string, bool) {
	addr, rest, ok := strings.Cut(strings.TrimSpace(line), " ")
	if !ok || addr == "" {
		return "", false
	}
	typ, name, ok := strings.Cut(strings.TrimLeft(rest, " "), " ")
	if !ok || typ != "T" {
		return "", false
	}
	return name, true
}

// stripTypeArgs drops the bracketed shape arguments the compiler gives
// a generic instantiation, so pkg.F[go.shape.int] reads pkg.F and
// pkg.(*T[go.shape.int]).M reads pkg.(*T).M.
func stripTypeArgs(sym string) string {
	var b strings.Builder
	depth := 0
	for _, r := range sym {
		switch {
		case r == '[':
			depth++
		case r == ']':
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}
