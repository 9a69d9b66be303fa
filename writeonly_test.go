package xfaas_test

import (
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os/exec"
	"path"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// writeOnlyAllowed names the struct fields that non-test code writes and
// never reads, each with its reader: a test that uses the field as its
// only view of a behaviour, or a comparison the finder cannot see.
var writeOnlyAllowed = map[string]string{
	"baseline.Platform.Completed":          "baseline_test.go TestMemoryExhaustionQueues; xfaas_test.go TestTriggerFacade",
	"cluster.Region.Name":                  "cluster_test.go TestSubsetPreservesLatencies",
	"config.Cache.version":                 "config_test.go TestVersionsIncrement",
	"congestion.Concurrency.Rejected":      "congestion_test.go TestConcurrencyLimiter",
	"congestion.Manager.DispatchDenied":    "congestion_test.go TestManagerDispatchFlow",
	"core.Platform.GTC":                    "platform_test.go TestPlatformGTCPublishesUnderImbalance",
	"core.Platform.Util":                   "configfile_test.go TestConfigFileKeysReachThePlatform",
	"core.Platform.codeVersion":            "platform_test.go TestPlatformCodePushRollsVersions",
	"durableq.Shard.DrainedIn":             "experiment digest_test.go TestSeededDigests; durableq drain_test.go TestAdoptDrainedRequeues",
	"durableq.Shard.DrainedOut":            "experiment digest_test.go TestSeededDigests; durableq drain_test.go TestDrainExtractFiltersQueuedOnly",
	"durableq.Shard.Nacked":                "experiment digest_test.go TestSeededDigests; durableq_test.go TestCountersConsistent",
	"durableq.Shard.Released":              "experiment digest_test.go TestSeededDigests; durableq drain_test.go TestReleaseReturnsLeaseToQueue",
	"experiment.standardKey.Invariants":    "rig.go standardRun: the key's == in sync.Map",
	"experiment.standardKey.Observe":       "rig.go standardRun: the key's == in sync.Map",
	"experiment.standardKey.Policy":        "rig.go standardRun: the key's == in sync.Map",
	"experiment.standardKey.Quick":         "rig.go standardRun: the key's == in sync.Map",
	"experiment.standardKey.Seed":          "rig.go standardRun: the key's == in sync.Map",
	"gtc.Conductor.Computations":           "gtc_test.go TestConductorPublishes",
	"isolation.Checker.Allowed":            "isolation_table_test.go TestCheckerOpsTable",
	"isolation.Checker.Denied":             "isolation_table_test.go TestCheckerOpsTable",
	"jit.Distributor.Pushes":               "jit_test.go TestDistributorPhases",
	"jit.Runtime.SeededCompilations":       "jit_test.go TestSeededPrecompilation",
	"jit.Runtime.SelfCompilations":         "jit_test.go TestSelfProfilingCompletes",
	"journal.Entry.At":                     "journal reference_test.go TestLogMatchesReference, through sameRecords",
	"scheduler.Scheduler.Crashes":          "crash_test.go TestCrashOrphansLeasesAndRecovers",
	"scheduler.Scheduler.IsolationDenied":  "scheduler_test.go TestIsolationDeniedCallsFail",
	"scheduler.Scheduler.Nacked":           "experiment digest_test.go TestSeededDigests",
	"submitter.Submitter.Batches":          "submitter_test.go TestBatchSizeFlush",
	"trigger.Stream.Errors":                "trigger_test.go TestStreamBacksOffOnSubmitError",
	"trigger.Timers.Errors":                "trigger_test.go TestTimersSubmitErrorsCounted",
	"utilization.Controller.Adjustments":   "utilization_table_test.go TestControllerResponseTable",
	"worker.Worker.Backpressured":          "worker_test.go TestDownstreamBackpressureFailsCall",
	"worker.Worker.Cancelled":              "cancel_test.go TestCancelUnwindsAccounting",
	"worker.Worker.CodeEvictions":          "worker_test.go TestCodeCacheLRUEviction",
	"workerlb.LB.Rejected":                 "workerlb_test.go TestDispatchRejectsWhenSaturated",
	"workload.GrowthPoint.YearsSinceStart": "workload_test.go TestGrowthSeriesMonthlySamples",
}

// TestNoWriteOnlyState fails on any struct field that non-test code
// writes but never reads, unless writeOnlyAllowed names its reader. The
// benchmark module's files count as readers, since it is built from this
// tree. An allowlist entry that is no longer a finding fails too.
func TestNoWriteOnlyState(t *testing.T) {
	files, scope := modulePackages(t)
	bench, err := filepath.Glob("benchmark/*.go")
	if err != nil {
		t.Fatal(err)
	}
	bench = slices.DeleteFunc(bench, func(f string) bool { return strings.HasSuffix(f, "_test.go") })
	files["xfaas/benchmark"] = bench
	found := findWriteOnly(t, files, scope, []string{"xfaas/benchmark"})
	for name, pos := range found {
		if _, ok := writeOnlyAllowed[name]; !ok {
			t.Errorf("%s: %s is written but never read", pos, name)
		}
	}
	for name := range writeOnlyAllowed {
		if _, ok := found[name]; !ok {
			t.Errorf("writeOnlyAllowed names %s, which is not write-only", name)
		}
	}
}

// TestWriteOnlyRules runs the finder over testdata/writeonly, whose
// fields each break the finder if one of its rules is dropped: every
// field but the ones below is read.
func TestWriteOnlyRules(t *testing.T) {
	files, _ := modulePackages(t)
	fixture, err := filepath.Glob("testdata/writeonly/*.go")
	if err != nil {
		t.Fatal(err)
	}
	files["xfaas/testdata/writeonly"] = fixture
	var got []string
	for name := range findWriteOnly(t, files, []string{"xfaas/testdata/writeonly"}, nil) {
		got = append(got, name)
	}
	slices.Sort(got)
	want := []string{
		"writeonly.key.a", "writeonly.key.b",
		"writeonly.rim.hits",
		"writeonly.sink.byKey", "writeonly.sink.gone", "writeonly.sink.log",
	}
	if !slices.Equal(got, want) {
		t.Fatalf("write-only fields = %v, want %v", got, want)
	}
}

var listModule = sync.OnceValues(func() ([]byte, error) {
	return exec.Command("go", "list", "-f", `{{.ImportPath}}{{range .GoFiles}} {{$.Dir}}/{{.}}{{end}}`, "./...").Output()
})

// modulePackages returns the non-test files of each package of the
// module, by import path, and the import paths in go list's order.
func modulePackages(t *testing.T) (map[string][]string, []string) {
	out, err := listModule()
	if err != nil {
		t.Fatalf("go list: %v", err)
	}
	files := map[string][]string{}
	var paths []string
	for _, line := range strings.Split(strings.TrimSpace(string(out)), "\n") {
		f := strings.Fields(line)
		files[f[0]] = f[1:]
		paths = append(paths, f[0])
	}
	return files, paths
}

// loader type-checks the module's packages from source, each once, so a
// field is one *types.Var in every package that uses it. It hands the
// standard library to the source importer.
type loader struct {
	fset   *token.FileSet
	std    types.Importer
	files  map[string][]string
	pkgs   map[string]*types.Package
	syntax map[string][]*ast.File
	info   *types.Info
}

func (l *loader) Import(p string) (*types.Package, error) {
	if pkg, ok := l.pkgs[p]; ok {
		return pkg, nil
	}
	names, ok := l.files[p]
	if !ok {
		return l.std.Import(p)
	}
	var files []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(l.fset, name, nil, 0)
		if err != nil {
			return nil, err
		}
		files = append(files, f)
	}
	pkg, err := (&types.Config{Importer: l}).Check(p, l.fset, files, l.info)
	if err != nil {
		return nil, err
	}
	l.pkgs[p], l.syntax[p] = pkg, files
	return pkg, nil
}

// findWriteOnly returns the fields declared in the scope packages that
// the scope packages write and neither they nor the reader packages
// read, as package.Type.Field → declaring position. The rules:
//   - x.f = v, x.f op= v, x.f++, x.f[k] = v, x.f.g = v (f a value),
//     delete(x.f, k), x.f = append(x.f, ...) and keyed or unkeyed struct
//     literals write f; every other use reads it.
//   - A call x.f.M() writes f only when f is a value stats.Counter or
//     stats.Gauge and M returns nothing; on a pointer or any other type
//     it reads f, which may be shared with a registry or a store.
//   - Fields of instantiated generic types are their origin's fields.
//   - Tagged and embedded fields are read, by encoding/json or promotion.
//   - A string literal equal to a field's name reads it: reflection looks
//     fields up by name.
func findWriteOnly(t *testing.T, files map[string][]string, scope, readers []string) map[string]string {
	t.Helper()
	fset := token.NewFileSet()
	l := &loader{
		fset:   fset,
		std:    importer.ForCompiler(fset, "source", nil),
		files:  files,
		pkgs:   map[string]*types.Package{},
		syntax: map[string][]*ast.File{},
		info: &types.Info{
			Types:      map[ast.Expr]types.TypeAndValue{},
			Defs:       map[*ast.Ident]types.Object{},
			Uses:       map[*ast.Ident]types.Object{},
			Selections: map[*ast.SelectorExpr]*types.Selection{},
		},
	}
	for _, p := range append(slices.Clone(scope), readers...) {
		if _, err := l.Import(p); err != nil {
			t.Fatalf("type-check %s: %v", p, err)
		}
	}

	writes, reads := map[*types.Var]bool{}, map[*types.Var]bool{}
	names := map[*types.Var]string{} // declared fields, by package.Type.Field
	literals := map[string]bool{}
	inScope := map[string]bool{}
	for _, p := range scope {
		inScope[p] = true
	}
	for _, p := range append(slices.Clone(scope), readers...) {
		writer := inScope[p]
		for _, f := range l.syntax[p] {
			var stack []ast.Node
			use := func(v *types.Var, write bool) {
				if write && writer {
					writes[v.Origin()] = true
				} else if !write {
					reads[v.Origin()] = true
				}
			}
			ast.Inspect(f, func(n ast.Node) bool {
				if n == nil {
					stack = stack[:len(stack)-1]
					return true
				}
				stack = append(stack, n)
				switch n := n.(type) {
				case *ast.SelectorExpr:
					if sel := l.info.Selections[n]; sel != nil && sel.Kind() == types.FieldVal {
						use(sel.Obj().(*types.Var), written(l.info, stack))
					}
				case *ast.CompositeLit:
					st, ok := structOf(l.info.TypeOf(n))
					if !ok {
						break
					}
					for i, e := range n.Elts {
						if kv, ok := e.(*ast.KeyValueExpr); ok {
							use(l.info.Uses[kv.Key.(*ast.Ident)].(*types.Var), true)
						} else {
							use(st.Field(i), true)
						}
					}
				case *ast.BasicLit:
					if s, err := strconv.Unquote(n.Value); n.Kind == token.STRING && err == nil {
						literals[s] = true
					}
				case *ast.StructType:
					typ := "struct@" + fset.Position(n.Pos()).String()
					if spec, ok := stack[len(stack)-2].(*ast.TypeSpec); ok {
						typ = spec.Name.Name
					}
					for _, fld := range n.Fields.List {
						for _, id := range fld.Names {
							v := l.info.Defs[id].(*types.Var)
							names[v] = path.Base(p) + "." + typ + "." + id.Name
							if fld.Tag != nil {
								reads[v] = true
							}
						}
					}
				}
				return true
			})
		}
	}

	found := map[string]string{}
	for v := range writes {
		if reads[v] || v.Embedded() || literals[v.Name()] || !inScope[v.Pkg().Path()] {
			continue
		}
		found[names[v]] = fset.Position(v.Pos()).String()
	}
	return found
}

// structOf returns the struct a composite literal of type typ builds.
func structOf(typ types.Type) (*types.Struct, bool) {
	if p, ok := typ.Underlying().(*types.Pointer); ok {
		typ = p.Elem()
	}
	st, ok := typ.Underlying().(*types.Struct)
	return st, ok
}

// written reports whether the field selection on top of stack is written
// rather than read, by walking out through the expressions that contain it.
func written(info *types.Info, stack []ast.Node) bool {
	for i := len(stack) - 1; i > 0; i-- {
		cur := stack[i].(ast.Expr)
		switch p := stack[i-1].(type) {
		case *ast.ParenExpr:
			continue
		case *ast.AssignStmt:
			return slices.Contains(p.Lhs, cur)
		case *ast.IncDecStmt:
			return true
		case *ast.IndexExpr:
			switch info.TypeOf(cur).Underlying().(type) {
			case *types.Map, *types.Slice, *types.Array:
				if p.X == cur {
					continue
				}
			}
			return false
		case *ast.SelectorExpr:
			sel := info.Selections[p]
			switch {
			case sel == nil:
				return false
			case sel.Kind() == types.FieldVal && !sel.Indirect():
				continue
			case sel.Kind() == types.MethodVal && isStat(info.TypeOf(cur)) && i >= 2:
				call, ok := stack[i-2].(*ast.CallExpr)
				return ok && call.Fun == p && sel.Obj().Type().(*types.Signature).Results().Len() == 0
			}
			return false
		case *ast.CallExpr:
			if len(p.Args) == 0 || p.Args[0] != cur {
				return false
			}
			switch builtin(info, p.Fun) {
			case "delete":
				return true
			case "append":
				a, ok := stack[i-2].(*ast.AssignStmt)
				if !ok || len(a.Lhs) != len(a.Rhs) {
					return false
				}
				k := slices.Index(a.Rhs, ast.Expr(p))
				return k >= 0 && sameField(info, a.Lhs[k], cur)
			}
			return false
		default:
			return false
		}
	}
	return false
}

// isStat reports whether typ is a value stats.Counter or stats.Gauge.
func isStat(typ types.Type) bool {
	n, ok := typ.(*types.Named)
	if !ok || n.Obj().Pkg() == nil || n.Obj().Pkg().Path() != "xfaas/internal/stats" {
		return false
	}
	return n.Obj().Name() == "Counter" || n.Obj().Name() == "Gauge"
}

// builtin returns the name of the builtin fun calls, or "".
func builtin(info *types.Info, fun ast.Expr) string {
	id, ok := ast.Unparen(fun).(*ast.Ident)
	if !ok {
		return ""
	}
	if b, ok := info.Uses[id].(*types.Builtin); ok {
		return b.Name()
	}
	return ""
}

// sameField reports whether a and b select the same field.
func sameField(info *types.Info, a, b ast.Expr) bool {
	sa, ok := ast.Unparen(a).(*ast.SelectorExpr)
	sb, ok2 := ast.Unparen(b).(*ast.SelectorExpr)
	if !ok || !ok2 || info.Selections[sa] == nil || info.Selections[sb] == nil {
		return false
	}
	return info.Selections[sa].Obj() == info.Selections[sb].Obj()
}
