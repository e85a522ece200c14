package addrkv

// The repository's contract, whole, under `go test ./...`: the three
// tracked numbers only go down, twelve retired designs stay retired,
// every exported function has a caller or a named reason, four paper
// experiments regenerate their committed CSVs byte for byte and the
// five examples run. Each row names a commit it fails on, so a reader
// can check that it can fail.
//
//	go test -run 'TestContract/guard/one-span-owner' .

import (
	"bytes"
	"fmt"
	"go/ast"
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

	"addrkv/internal/harness"
)

// Tracked numbers. Each bound is the count on the tree that set it;
// lower it when a change lowers the count, never raise it.
const (
	maxNonTestLines  = 21921 // non-test Go outside bench/
	maxKvserveFlags  = 18
	maxOptionsFields = 6
	maxUncalled      = 14 // the census allowlist
)

// contractFile holds the guards' patterns, so no guard searches it.
const contractFile = "contract_test.go"

func TestContract(t *testing.T) {
	t.Run("ratchet/non-test-lines", func(t *testing.T) {
		// find . -name '*.go' -not -path './bench/*' -not -name '*_test.go' | xargs cat | wc -l
		// Fails on 5973148 (22 524).
		n := 0
		for _, f := range under(func(p string) bool { return isNonTestGo(p) && !strings.HasPrefix(p, "bench/") }, ".")(t) {
			n += bytes.Count(read(t, f), []byte("\n"))
		}
		if n > maxNonTestLines {
			t.Errorf("non-test Go is %d lines, over the ratchet's %d", n, maxNonTestLines)
		}
		t.Logf("non-test Go: %d lines (ratchet %d)", n, maxNonTestLines)
	})
	t.Run("ratchet/kvserve-flags", func(t *testing.T) {
		// grep -c '= flag\.' cmd/kvserve/main.go. Fails on 4c4d2d6 (19).
		n := countLines(string(read(t, "cmd/kvserve/main.go")), regexp.MustCompile(`= flag\.`))
		if n > maxKvserveFlags {
			t.Errorf("kvserve declares %d flags, over the ratchet's %d", n, maxKvserveFlags)
		}
	})
	t.Run("ratchet/options-fields", func(t *testing.T) {
		// awk '/^type Options struct/,/^}/' addrkv.go | grep -cE '^\s+[A-Z]'.
		// The facade keeps the knobs its callers set; the experiments set
		// the rest through kv.Config in internal/harness. Fails on 1b089c7
		// (17).
		src := string(read(t, "addrkv.go"))
		i := strings.Index(src, "\ntype Options struct")
		j := strings.Index(src[i+1:], "\n}")
		if i < 0 || j < 0 {
			t.Fatal("addrkv.go declares no Options struct")
		}
		n := countLines(src[i+1:i+1+j], regexp.MustCompile(`^\s+[A-Z]`))
		if n > maxOptionsFields {
			t.Errorf("addrkv.Options has %d fields, over the ratchet's %d", n, maxOptionsFields)
		}
	})

	for _, g := range guards {
		g := g
		t.Run("guard/"+g.name, func(t *testing.T) {
			if raceEnabled {
				t.Skip("a source check, not a concurrency one; go test ./... runs it")
			}
			for _, p := range g.absent {
				re := regexp.MustCompile(p.pattern)
				for _, f := range p.where(t) {
					for i, line := range strings.Split(string(read(t, f)), "\n") {
						if re.MatchString(line) {
							t.Errorf("%s:%d: %s", f, i+1, strings.TrimSpace(line))
						}
					}
				}
			}
			if g.check != nil {
				g.check(t)
			}
			if t.Failed() {
				t.Logf("%s (this row fails on %s)", g.why, g.failsOn)
			}
		})
	}

	t.Run("census", func(t *testing.T) {
		if len(uncalledAllowed) > maxUncalled {
			t.Errorf("%d functions listed as uncalled, over the ratchet's %d", len(uncalledAllowed), maxUncalled)
		}
		got := uncalled(t)
		for _, name := range sortedKeys(got) {
			if _, ok := uncalledAllowed[name]; !ok {
				t.Errorf("%s has no non-test caller: call it, delete it, move it to a _test.go file, or list it with a reason", name)
			}
		}
		for _, name := range sortedKeys(uncalledAllowed) {
			if !got[name] {
				t.Errorf("%s is listed as uncalled but has a caller now, or is gone: drop it from the list", name)
			}
		}
	})

	// stltbench -exp <id> -csv results && git diff --exit-code results,
	// in process, for the experiments tier-1 can afford: each runs at
	// its declared scale and must write exactly its committed CSVs.
	// fig18 and ext-hwhash share one subtest because they share their
	// baseline and xxh3 runs, which the harness memoizes.
	for _, ids := range [][]string{{"tab5"}, {"fig1"}, {"fig18", "ext-hwhash"}} {
		t.Run("paper/"+strings.Join(ids, "+"), func(t *testing.T) {
			// Fails with one digit of any of these CSVs changed.
			if raceEnabled {
				t.Skip("an output check, not a concurrency one; go test ./... runs it")
			}
			t.Parallel()
			for _, id := range ids {
				e, err := harness.ByID(id)
				if err != nil {
					t.Fatal(err)
				}
				tables := e.Run(e.Scale)
				committed, err := filepath.Glob("results/" + id + "_*.csv")
				if err != nil || len(committed) != len(tables) {
					t.Errorf("%s writes %d tables, results/ holds %d (%v)", id, len(tables), len(committed), err)
				}
				for i, tb := range tables {
					name := fmt.Sprintf("results/%s_%d.csv", id, i)
					if want := string(read(t, name)); tb.CSV() != want {
						t.Errorf("%s no longer regenerates %s:\ngot:\n%s\nwant:\n%s", id, name, tb.CSV(), want)
					}
				}
			}
		})
	}

	t.Run("paper/examples", func(t *testing.T) {
		// The examples are the facade's only callers of RunWorkload,
		// Workload and HardwareCost.
		if raceEnabled {
			t.Skip("an exit-status check, not a concurrency one; go test ./... runs it")
		}
		t.Parallel()
		bin := t.TempDir()
		// go test puts its own GOROOT/bin first on the PATH.
		if out, err := exec.Command("go", "build", "-o", bin+string(filepath.Separator), "./examples/...").CombinedOutput(); err != nil {
			t.Fatalf("go build ./examples/...: %v\n%s", err, out)
		}
		dirs, err := os.ReadDir("examples")
		if err != nil || len(dirs) != 5 {
			t.Fatalf("%d examples, want 5 (%v)", len(dirs), err)
		}
		for _, d := range dirs {
			if out, err := exec.Command(filepath.Join(bin, d.Name())).CombinedOutput(); err != nil {
				t.Errorf("examples/%s: %v\n%s", d.Name(), err, out)
			}
		}
	})
}

// A guard holds a retired design out of the tree: no line of the files
// it names may match any of its patterns, and check, if set, holds.
type guard struct {
	name    string
	why     string
	failsOn string // a commit on which the row fails
	absent  []probe
	check   func(t *testing.T)
}

type probe struct {
	pattern string // Go regexp; no line of where may match it
	where   func(t *testing.T) []string
}

var guards = []guard{
	{
		name: "one-scale-per-result",
		why: "stltbench's scale flags do not come back: every committed results/ CSV has exactly " +
			"one scale, the Scale its experiment declares, and a CSV written at any other scale " +
			"matches nothing in the repository.",
		failsOn: "4461739",
		absent:  []probe{{`flag\.[A-Za-z0-9]*\(([^,]*,\s*)?"(keys|warm|measure|quick)"`, goGlob("cmd/stltbench/*.go")}},
	},
	{
		name: "one-stlt-state",
		why: "The run-time monitor, the tuner and STLTresize do not come back: as a default " +
			"the monitor cost 3-4 % of modeled cycles/op on three of the four benchmark workloads (EXPERIMENTS.md).",
		failsOn: "1b089c7",
		absent:  []probe{{`EnableMonitor|AutoTune|core\.Monitor|core\.Tuner|STLTResize`, under(isGo, ".")}},
	},
	{
		name: "retired-orchestrators",
		why: "The orchestrators' gates are tier-1 tests: scripts/cluster's migration audit is " +
			"TestClusterMigrateUnderTrafficOverRESP, scripts/ycsb's mix smoke TestServeYCSBMixes, " +
			"scripts/recovery's agreement gate TestSnapshotMidStreamRecovery, scripts/health's " +
			"TestHeartbeatCountedWork and TestClusterDownDetection, kvbench -trace-overhead's " +
			"TestServerTracingArmedZeroAlloc; kvbench's mix mode had no other caller and CLUSTER " +
			"HEARTBEAT ON|OFF only served the script's A/B toggle.",
		failsOn: "61f1466 (the workload flag), b172b20 (the rest)",
		absent: []probe{
			{`flag\.[A-Za-z]*\("workload"`, goGlob("cmd/kvbench/*.go")},
			{`hbOn|"trace-overhead"`, under(isGo, "cmd")},
		},
		check: func(t *testing.T) {
			if _, err := os.Stat("scripts"); err == nil {
				t.Error("scripts/ exists again")
			}
		},
	},
	{
		name: "one-fleet-view",
		why: "The JSON fleet snapshots do not come back: every fleet surface renders from the series " +
			"table, and kvtop reads CLUSTER HEALTH/INFO/HEARTBEAT STATUS/MIGRATE STATUS over RESP. " +
			"Tests may name the endpoints to assert they answer 404.",
		failsOn: "7c08e30",
		absent:  []probe{{`snapshot\.json`, under(isNonTest, "cmd", "internal")}},
	},
	{
		name: "one-server-config",
		why: "The per-subsystem option structs do not come back: main fills one config and tests " +
			"write it as a literal; both build and stop the server through newServer and close.",
		failsOn: "ed71b10",
		absent:  []probe{{`netConfig|traceConfig|clusterOpts|persistOpts`, goGlob("cmd/kvserve/*.go")}},
	},
	{
		name: "one-form-per-result",
		why: "The JSON run records, the server's Chrome export and the trigger config do not come " +
			"back: the paper's numbers are stltbench's CSVs, a replay is kvreplay's text report, a " +
			"trace is its bundle (kvtrace chrome converts it).",
		failsOn: "be1d239",
		absent: []probe{{`telemetry\.Snapshot|RunRecord|SetRecorder|writeChromeTrace|AnomalyConfig`,
			under(isGo, "cmd", "internal")}},
	},
	{
		name: "one-span-owner",
		why: "The engine- and cluster-level tracers do not come back: kvserve's enqueue is the only " +
			"place an op span begins; the engine only stamps events on a span the shard attached, " +
			"and a migration batch begins none.",
		failsOn: "4c4d2d6 (the tracers), a0e3b0c (the BeginSampled callers)",
		absent:  []probe{{`SetTracer|tracerShard|traceCtr`, under(isGo, "cmd", "internal")}},
		check: func(t *testing.T) {
			// Outside internal/trace, exactly one non-test line says
			// BeginSampled(, and it lies in a method named enqueue.
			var files []string
			for _, f := range under(isNonTestGo, "cmd", "internal")(t) {
				if !strings.HasPrefix(f, "internal/trace/") && bytes.Contains(read(t, f), []byte("BeginSampled(")) {
					files = append(files, f)
				}
			}
			n := 0
			for _, f := range files {
				for _, at := range linesIn(t, f, regexp.MustCompile(`BeginSampled\(`)) {
					n++
					if fd := at.fn; fd == nil || fd.Recv == nil || fd.Name.Name != "enqueue" {
						t.Errorf("%s:%d: BeginSampled outside a method named enqueue", f, at.line)
					}
				}
			}
			if n != 1 {
				t.Errorf("%d lines call BeginSampled outside internal/trace, want 1", n)
			}
		},
	},
	{
		name: "one-fleet-schema",
		why: "The binary digest and the migration spans do not come back: a node reports itself " +
			"through the report rows of cmd/kvserve/series.go; migration progress is CLUSTER MIGRATE " +
			"STATUS and the cluster_import_* rows.",
		failsOn: "a0e3b0c",
		absent: []probe{{`health\.Digest|DecodeDigest|ShardDigest|OnProgress|EvMigProgress|EvSTLTRewarm`,
			under(isGo, "cmd", "internal")}},
	},
	{
		name:    "one-command-table",
		why:     "The hand-kept command lists do not come back: every verb is one row of kvserve's command table.",
		failsOn: "937909b",
		absent:  []probe{{`asyncKind|traceSpanFor|knownCmds`, goGlob("cmd/kvserve/*.go")}},
	},
	{
		name: "one-series-table",
		why: "Hand-registered gauges and hand-formatted report lines do not come back: every " +
			"reported quantity is a row of cmd/kvserve/series.go; the one exception is TRACE " +
			"STATUS's events_* lines in trace.go, which follow the tracer's event-kind enum.",
		failsOn: "0f9c9ac",
		absent: []probe{
			{`GaugeFunc\(|CounterFunc\(`, without(goGlob("cmd/kvserve/*.go"), "cmd/kvserve/series.go")},
			{`(Fprintf\(&b|add\(|emit\()\s*,?\s*"[a-z0-9_%]+:%`, files(
				"cmd/kvserve/main.go", "cmd/kvserve/runtime.go", "cmd/kvserve/persist.go",
				"cmd/kvserve/cluster.go", "cmd/kvserve/health.go", "cmd/kvserve/metrics.go",
				"cmd/kvserve/commands.go")},
		},
	},
	{
		name: "one-op-routine",
		why: "The batch executors, the engine's batch entry points and the second outcome type do " +
			"not come back: MGET/MSET/DEL are N Reqs through Cluster.DoBatch and exec.",
		failsOn: "a8c76a5",
		absent: []probe{
			{`BatchOutcome|(Get|Set|Delete)BatchO\b`, under(isGoOutsideBench, ".")},
			{`func \([a-z]+ \*Engine\) (Get|Set|Delete)Batch\(`, under(isGoOutsideBench, ".")},
		},
	},
	{
		name: "one-fast-path-seam",
		why: "The paired STLT/SLB sites do not come back: kv.Engine reaches the STLT or the SLB " +
			"only through its fastPath, and New builds them.",
		failsOn: "7b8a76b",
		check: func(t *testing.T) {
			re := regexp.MustCompile(`(^|[^A-Za-z0-9_.])e\.(STLT|SLB)([^A-Za-z0-9_]|$)`)
			for _, f := range goGlob("internal/kv/*.go")(t) {
				if !isNonTest(f) {
					continue
				}
				for _, at := range linesIn(t, f, re) {
					if fd := at.fn; fd == nil || fd.Recv != nil || fd.Name.Name != "New" {
						t.Errorf("%s:%d: e.STLT or e.SLB outside kv.New", f, at.line)
					}
				}
			}
		},
	},
}

// uncalledAllowed lists the exported functions the census may find,
// each with the reason it stays. Its size is a tracked number
// (maxUncalled): entries only leave. A helper that only its own package's tests call
// belongs in a _test.go file of that package, not here.
var uncalledAllowed = map[string]string{
	// Helpers another package's tests call.
	"internal/shard Cluster.PeekValue": "cmd/kvserve TestClusterMigrateUnderTrafficOverRESP and " +
		"internal/cluster TestMigrateMovesSlotByteIdentical read stored values through it",
	"internal/wal FrameSize":            "internal/shard buildCrashLog (TestCrashPointFaultInjection) sizes frames with it",
	"internal/vm PageTable.MappedPages": "internal/harness TestGoldenModel's writePathRun pins the mapped page count",
	"internal/trace Op.Has":             "cmd/kvserve TestTraceCommands and internal/shard TestTracedOpsMatchUntraced read span events with it",
	"internal/ycsb Distributions":       "BenchmarkMicroYCSBNext in bench_test.go ranges over it",
	"internal/resp Reader.ReadPipeline": "the reference reader (FuzzReadPipelineReuse's oracle); cmd/kvserve " +
		"TestServerRuntimeInfoAndMetrics and cmd/kvbench's miniServer read pipelines with it",
	// The paper's OS mechanisms.
	"internal/core OS.ContextSwitch":         "§III-D1 lazy coherence; its pinned run is ROADMAP item 11",
	"internal/core OS.STLTFree":              "§III-D1 lazy coherence; its pinned run is ROADMAP item 11",
	"internal/vm AddressSpace.UnmapPage":     "§III-D1 lazy coherence; its pinned run is ROADMAP item 11",
	"internal/vm AddressSpace.RemapPage":     "§III-D1 lazy coherence; its pinned run is ROADMAP item 11",
	"internal/shard Cluster.WALErr":          "the sticky log error's getter; ROADMAP item 2 gives it a caller or deletes it",
	"internal/resp Stream.TakeLeftover":      "leaves with stream.go, ROADMAP item 4",
	"internal/trace EventKind.MarshalJSON":   "called by encoding/json",
	"internal/trace EventKind.UnmarshalJSON": "called by encoding/json",
}

// uncalled is the census: every exported function or method declared
// in a non-test file outside bench/ whose name no non-test file uses,
// bench/ counted as a caller. A use is any identifier but a function's
// own name where it is declared, so a name shared by two uncalled
// declarations calls neither. Keys read "dir Recv.Name".
func uncalled(t *testing.T) map[string]bool {
	used := map[string]bool{}
	decls := map[string]string{} // key → function name
	fset := token.NewFileSet()
	for _, f := range under(isNonTestGo, ".")(t) {
		af, err := parser.ParseFile(fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		declared := map[*ast.Ident]bool{}
		for _, d := range af.Decls {
			fd, ok := d.(*ast.FuncDecl)
			if !ok {
				continue
			}
			declared[fd.Name] = true
			if !fd.Name.IsExported() || strings.HasPrefix(f, "bench/") {
				continue
			}
			key := filepath.Dir(f) + " " + fd.Name.Name
			if fd.Recv != nil {
				key = filepath.Dir(f) + " " + recvName(fd.Recv.List[0].Type) + "." + fd.Name.Name
			}
			decls[key] = fd.Name.Name
		}
		ast.Inspect(af, func(n ast.Node) bool {
			if id, ok := n.(*ast.Ident); ok && !declared[id] {
				used[id.Name] = true
			}
			return true
		})
	}
	out := map[string]bool{}
	for key, name := range decls {
		if !used[name] {
			out[key] = true
		}
	}
	return out
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func recvName(e ast.Expr) string {
	if star, ok := e.(*ast.StarExpr); ok {
		e = star.X
	}
	if id, ok := e.(*ast.Ident); ok {
		return id.Name
	}
	return "?" // a generic receiver; the repository declares none
}

// under is grep -r over roots, keep choosing the files: it lists them
// as slash paths relative to the repository root, skipping .git and
// this file.
func under(keep func(path string) bool, roots ...string) func(*testing.T) []string {
	return func(t *testing.T) []string {
		var out []string
		for _, root := range roots {
			err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
				switch {
				case err != nil && os.IsNotExist(err) && p == root:
					return filepath.SkipDir // grep of a missing path finds nothing
				case err != nil:
					return err
				case d.IsDir() && d.Name() == ".git":
					return filepath.SkipDir
				}
				if p = filepath.ToSlash(p); !d.IsDir() && p != contractFile && keep(p) {
					out = append(out, p)
				}
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		return out
	}
}

func isGo(p string) bool        { return strings.HasSuffix(p, ".go") }
func isNonTest(p string) bool   { return !strings.HasSuffix(p, "_test.go") }
func isNonTestGo(p string) bool { return isGo(p) && isNonTest(p) }

// isGoOutsideBench is --include='*.go' --exclude-dir=bench.
func isGoOutsideBench(p string) bool { return isGo(p) && !strings.Contains("/"+p, "/bench/") }

// goGlob is a shell glob such as cmd/kvserve/*.go.
func goGlob(pattern string) func(*testing.T) []string {
	return func(t *testing.T) []string {
		m, err := filepath.Glob(pattern)
		if err != nil {
			t.Fatal(err)
		}
		return m
	}
}

// files names files outright; a missing one fails the row.
func files(names ...string) func(*testing.T) []string {
	return func(*testing.T) []string { return names }
}

func without(set func(*testing.T) []string, drop string) func(*testing.T) []string {
	return func(t *testing.T) []string {
		var out []string
		for _, f := range set(t) {
			if f != drop {
				out = append(out, f)
			}
		}
		return out
	}
}

// hit is a matching line and the top-level function that holds it
// (nil outside every function).
type hit struct {
	line int
	fn   *ast.FuncDecl
}

func linesIn(t *testing.T, file string, re *regexp.Regexp) []hit {
	t.Helper()
	src := read(t, file)
	fset := token.NewFileSet()
	af, err := parser.ParseFile(fset, file, src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatal(err)
	}
	var out []hit
	for i, line := range strings.Split(string(src), "\n") {
		if !re.MatchString(line) {
			continue
		}
		h := hit{line: i + 1}
		for _, d := range af.Decls {
			if fd, ok := d.(*ast.FuncDecl); ok &&
				fset.Position(fd.Pos()).Line <= h.line && h.line <= fset.Position(fd.End()).Line {
				h.fn = fd
			}
		}
		out = append(out, h)
	}
	return out
}

func countLines(src string, re *regexp.Regexp) int {
	n := 0
	for _, line := range strings.Split(src, "\n") {
		if re.MatchString(line) {
			n++
		}
	}
	return n
}

func read(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}
