package adaptivefl

import (
	"bufio"
	"bytes"
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
	"testing"
)

// censusRoots are the main packages whose linked symbols define what the
// program reaches, as `go -C dir build` arguments. bench/ is its own
// module and reaches a few functions no command does.
var censusRoots = [][2]string{
	{".", "./cmd/adaptivefl"},
	{".", "./cmd/flbench"},
	{".", "./cmd/fltrace"},
	{".", "./examples/dynamic"},
	{".", "./examples/heterogeneous"},
	{".", "./examples/quickstart"},
	{".", "./examples/testbed"},
	{"bench", "."},
}

// censusAllowList names the functions no binary reaches that stay on
// purpose, one per line with its reason.
const censusAllowList = "testdata/unreached.txt"

// censusReasons is the fixed set of reasons an unreached function may be
// kept for.
var censusReasons = map[string]bool{
	"test-helper":          true, // only tests call it
	"test-reference":       true, // the reference side of a parity or bit-identity pin
	"bench-type":           true, // the root benchmarks call it
	"pending-ROADMAP-item": true, // an open ROADMAP item claims it
}

// TestReachabilityCensus is the reachability gate. A function declared in
// a non-test file under internal/ is reached if the linker keeps its
// symbol when building any census root with inlining off (an inlined
// callee leaves no symbol). The test fails if an unreached function is not
// in the allow-list, or if a listed function is reached or no longer
// exists. The first run compiles the tree without inlining (~30 s cold on
// two cores).
func TestReachabilityCensus(t *testing.T) {
	if testing.Short() {
		t.Skip("builds every binary without inlining")
	}
	reached := linkedSymbols(t)
	declared := declaredFuncs(t, "internal")
	allowed := readAllowList(t)

	var unlisted, stale []string
	for _, fn := range declared {
		if !reached[fn] && allowed[fn] == "" {
			unlisted = append(unlisted, fn)
		}
	}
	isDeclared := make(map[string]bool, len(declared))
	for _, fn := range declared {
		isDeclared[fn] = true
	}
	for fn := range allowed {
		switch {
		case !isDeclared[fn]:
			stale = append(stale, fn+" (no longer exists)")
		case reached[fn]:
			stale = append(stale, fn+" (reached)")
		}
	}
	sort.Strings(stale)
	if len(unlisted) > 0 {
		t.Errorf("%d functions no binary reaches; delete them or list them in %s:\n  %s",
			len(unlisted), censusAllowList, strings.Join(unlisted, "\n  "))
	}
	if len(stale) > 0 {
		t.Errorf("%d stale entries in %s:\n  %s", len(stale), censusAllowList, strings.Join(stale, "\n  "))
	}
}

// linkedSymbols builds every census root with -ldflags=-dumpdep and
// returns the normalised names of every symbol the linker kept.
func linkedSymbols(t *testing.T) map[string]bool {
	t.Helper()
	reached := map[string]bool{}
	for _, root := range censusRoots {
		// go test puts its own toolchain first on PATH.
		cmd := exec.Command("go", "-C", root[0], "build",
			"-gcflags=all=-l", "-ldflags=-dumpdep", "-o", os.DevNull, root[1])
		var stderr bytes.Buffer
		cmd.Stderr = &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("go -C %s build %s: %v\n%s", root[0], root[1], err, stderr.Bytes())
		}
		sc := bufio.NewScanner(&stderr)
		sc.Buffer(nil, 1<<20)
		for sc.Scan() {
			for _, side := range strings.Split(sc.Text(), " -> ") {
				if name, ok := normaliseSymbol(side); ok {
					reached[name] = true
				}
			}
		}
	}
	return reached
}

// typeArgs matches a generic instantiation's type arguments.
var typeArgs = regexp.MustCompile(`\[[^\[\]]*\]`)

// normaliseSymbol maps a linker symbol of this module's internal/ tree to
// the census name: the package path from internal/, then the receiver
// type without pointer or type arguments, then the function name.
func normaliseSymbol(sym string) (string, bool) {
	if i := strings.Index(sym, " <"); i >= 0 {
		sym = sym[:i] // linker attributes, e.g. <UsedInIface>
	}
	rest, ok := strings.CutPrefix(sym, "adaptivefl/internal/")
	if !ok {
		return "", false
	}
	for typeArgs.MatchString(rest) {
		rest = typeArgs.ReplaceAllString(rest, "")
	}
	rest = strings.NewReplacer("(*", "", ")", "").Replace(rest)
	return "internal/" + rest, true
}

// declaredFuncs lists the census names of the functions and methods
// declared in the non-test Go files under dir that the default build
// context compiles.
func declaredFuncs(t *testing.T, dir string) []string {
	t.Helper()
	var names []string
	fset := token.NewFileSet()
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return err
		}
		if ok, err := build.Default.MatchFile(filepath.Dir(path), d.Name()); err != nil || !ok {
			return err
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		pkg := filepath.ToSlash(filepath.Dir(path)) + "."
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Name.Name == "init" || fd.Name.Name == "_" {
				continue
			}
			name := fd.Name.Name
			if fd.Recv != nil {
				name = receiverType(fd.Recv.List[0].Type) + "." + name
			}
			names = append(names, pkg+name)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	return names
}

// receiverType is a method receiver's type name without pointer or type
// parameters.
func receiverType(e ast.Expr) string {
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

// readAllowList parses censusAllowList: "name reason" per line, with #
// comments and blank lines ignored.
func readAllowList(t *testing.T) map[string]string {
	t.Helper()
	b, err := os.ReadFile(censusAllowList)
	if err != nil {
		t.Fatal(err)
	}
	allowed := map[string]string{}
	for i, line := range strings.Split(string(b), "\n") {
		if j := strings.Index(line, "#"); j >= 0 {
			line = line[:j]
		}
		f := strings.Fields(line)
		if len(f) == 0 {
			continue
		}
		if len(f) != 2 || !censusReasons[f[1]] {
			t.Fatalf("%s:%d: want \"name reason\" with a reason from %v, got %q", censusAllowList, i+1, censusReasons, line)
		}
		if allowed[f[0]] != "" {
			t.Fatalf("%s:%d: %s listed twice", censusAllowList, i+1, f[0])
		}
		allowed[f[0]] = f[1]
	}
	return allowed
}
