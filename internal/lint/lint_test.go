package lint_test

import (
	"flag"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"symfail/internal/lint"
)

var update = flag.Bool("update", false, "rewrite the golden diagnostic files")

// sharedLoader amortizes stdlib source-import work across the golden tests.
var sharedLoader = sync.OnceValues(func() (*lint.Loader, error) {
	root, err := lint.FindModRoot(".")
	if err != nil {
		return nil, err
	}
	return lint.NewLoader(root)
})

func loadFixture(t *testing.T, name string) []*lint.Package {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/lint/testdata/src/" + name)
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("fixture %s: got %d packages, want 1", name, len(pkgs))
	}
	return pkgs
}

// checkGolden runs the analyzers over one fixture package and compares the
// rendered diagnostics, with module-relative paths, against the golden file.
func checkGolden(t *testing.T, fixture string, analyzers ...*lint.Analyzer) {
	t.Helper()
	checkGoldenPkgs(t, fixture, loadFixture(t, fixture), analyzers...)
}

// checkGoldenPkgs is checkGolden over an explicit package set, for fixtures
// spanning multiple packages (the transitive-determinism tree).
func checkGoldenPkgs(t *testing.T, golden string, pkgs []*lint.Package, analyzers ...*lint.Analyzer) {
	t.Helper()
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, analyzers)
	var b strings.Builder
	for _, d := range diags {
		rel, err := filepath.Rel(l.ModRoot, d.Pos.Filename)
		if err != nil {
			t.Fatal(err)
		}
		d.Pos.Filename = filepath.ToSlash(rel)
		b.WriteString(d.String())
		b.WriteByte('\n')
	}
	got := b.String()
	goldenPath := filepath.Join("testdata", golden+".golden")
	if *update {
		if err := os.WriteFile(goldenPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("golden %s updated (%d diagnostics)", goldenPath, len(diags))
		return
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatalf("missing golden (run `go test ./internal/lint -update`): %v", err)
	}
	if got != string(want) {
		t.Errorf("diagnostics drifted from %s.\n got:\n%s\nwant:\n%s", goldenPath, got, want)
	}
	// Every positive fixture line is marked "// want:"; the golden file must
	// reference each of those lines, or a fixture case silently stopped
	// firing without the golden noticing an edit.
	for _, pkg := range pkgs {
		assertWantLinesCovered(t, pkg.Dir, l.ModRoot, got)
	}
}

// assertWantLinesCovered cross-checks the "// want:" markers in fixture
// sources against the golden diagnostics, so the two cannot drift apart.
func assertWantLinesCovered(t *testing.T, fixtureDir, modRoot, golden string) {
	t.Helper()
	reported := make(map[string]bool)
	for _, line := range strings.Split(golden, "\n") {
		if i := strings.Index(line, ": "); i > 0 {
			reported[line[:i]] = true
		}
	}
	entries, err := os.ReadDir(fixtureDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if e.IsDir() || !strings.HasSuffix(e.Name(), ".go") {
			continue
		}
		path := filepath.Join(fixtureDir, e.Name())
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		rel, _ := filepath.Rel(modRoot, path)
		rel = filepath.ToSlash(rel)
		for i, src := range strings.Split(string(data), "\n") {
			if !strings.Contains(src, "// want:") {
				continue
			}
			key := rel + ":" + itoa(i+1)
			if !reported[key] {
				t.Errorf("fixture marks %s with `// want:` but the golden has no diagnostic there", key)
			}
		}
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var digits []byte
	for n > 0 {
		digits = append([]byte{byte('0' + n%10)}, digits...)
		n /= 10
	}
	return string(digits)
}

func TestDeterminismGolden(t *testing.T) {
	checkGolden(t, "determinismfix", lint.NewDeterminism(lint.DeterminismConfig{}))
}

func TestMapOrderGolden(t *testing.T) {
	checkGolden(t, "maporderfix", lint.NewMapOrder())
}

func TestPanicTaxonomyGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/panicfix"
	checkGolden(t, "panicfix", lint.NewPanicTaxonomy(lint.TaxonomyConfig{
		SourcePrefixes: []string{fixturePath},
		TablePkg:       fixturePath,
		TableVar:       "KnownPanicKeys",
	}))
}

func TestAccMergeGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/accmergefix"
	checkGolden(t, "accmergefix", lint.NewAccMerge(lint.AccMergeConfig{
		StreamPkg:  fixturePath,
		IfaceName:  "Accumulator",
		TableVar:   "RegisteredAccumulators",
		RecordPkg:  fixturePath,
		RecordName: "Record",
	}))
}

func TestRNGShareGolden(t *testing.T) {
	checkGolden(t, "rngsharefix", lint.NewRNGShare(lint.RNGConfig{}))
}

func TestEngineShareGolden(t *testing.T) {
	checkGolden(t, "enginesharefix", lint.NewEngineShare(lint.EngineConfig{}))
}

func TestDirectiveGolden(t *testing.T) {
	checkGolden(t, "directivefix", lint.NewDeterminism(lint.DeterminismConfig{}))
}

func TestAckOrderGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/ackorderfix"
	checkGolden(t, "ackorderfix", lint.NewAckOrder(lint.AckOrderConfig{
		PkgPrefixes:   []string{fixturePath},
		StoreTypes:    []lint.TypeRef{{Pkg: fixturePath, Name: "WAL"}},
		RequestStarts: []lint.TypeRef{{Pkg: fixturePath, Name: "readHeader"}},
	}))
}

// TestHandoffAckOrderGolden runs ackorder over the fleet-handoff fixture:
// a peer accepting custody of another shard's acknowledged records must
// make them durable before its OK reaches the donor, in loops and through
// the boolean-correlated commit idiom alike.
func TestHandoffAckOrderGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/handofffix"
	checkGolden(t, "handofffix", lint.NewAckOrder(lint.AckOrderConfig{
		PkgPrefixes: []string{fixturePath},
		StoreTypes:  []lint.TypeRef{{Pkg: fixturePath, Name: "WAL"}},
	}))
}

// TestQuorumAckOrderGolden runs ackorder over the write-time quorum
// fixture: the primary's OK must follow its own WAL append+sync even when
// the quorum forward succeeded (replica copies are not this shard's
// durability), while the retryable "ERR quorum ..." refusal is not an
// acknowledgement and constrains nothing.
func TestQuorumAckOrderGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/quorumfix"
	checkGolden(t, "quorumfix", lint.NewAckOrder(lint.AckOrderConfig{
		PkgPrefixes: []string{fixturePath},
		StoreTypes:  []lint.TypeRef{{Pkg: fixturePath, Name: "WAL"}},
	}))
}

func TestErrDropGolden(t *testing.T) {
	fixturePath := "symfail/internal/lint/testdata/src/errdropfix"
	checkGolden(t, "errdropfix", lint.NewErrDrop(lint.ErrDropConfig{
		StoreTypes:  []lint.TypeRef{{Pkg: fixturePath, Name: "Flash"}},
		ResultTypes: []lint.TypeRef{{Pkg: fixturePath, Name: "Recovery"}},
	}))
}

// TestTransitiveDeterminismGolden restricts only the fixture's engine
// package and checks the leaks through the unrestricted sched/clock layers
// are reported with their full call chains.
func TestTransitiveDeterminismGolden(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/lint/testdata/src/transdetfix/...")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 3 {
		t.Fatalf("got %d packages, want 3 (clock, engine, sched)", len(pkgs))
	}
	checkGoldenPkgs(t, "transdetfix", pkgs, lint.NewDeterminism(lint.DeterminismConfig{
		RestrictedPrefixes: []string{"symfail/internal/lint/testdata/src/transdetfix/engine"},
	}))
}

// TestRunDeterministicOrder pins the Run output-order contract: the same
// packages and analyzers, fed in reversed orders, must render byte-identical
// diagnostics.
func TestRunDeterministicOrder(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load(
		"./internal/lint/testdata/src/ackorderfix",
		"./internal/lint/testdata/src/errdropfix",
		"./internal/lint/testdata/src/transdetfix/...",
	)
	if err != nil {
		t.Fatal(err)
	}
	ackPath := "symfail/internal/lint/testdata/src/ackorderfix"
	errPath := "symfail/internal/lint/testdata/src/errdropfix"
	mkAnalyzers := func() []*lint.Analyzer {
		return []*lint.Analyzer{
			lint.NewDeterminism(lint.DeterminismConfig{
				RestrictedPrefixes: []string{"symfail/internal/lint/testdata/src/transdetfix/engine"},
			}),
			lint.NewAckOrder(lint.AckOrderConfig{
				PkgPrefixes: []string{ackPath},
				StoreTypes:  []lint.TypeRef{{Pkg: ackPath, Name: "WAL"}},
			}),
			lint.NewErrDrop(lint.ErrDropConfig{
				StoreTypes:  []lint.TypeRef{{Pkg: errPath, Name: "Flash"}},
				ResultTypes: []lint.TypeRef{{Pkg: errPath, Name: "Recovery"}},
			}),
		}
	}
	render := func(pkgs []*lint.Package, analyzers []*lint.Analyzer) string {
		var b strings.Builder
		for _, d := range lint.Run(pkgs, analyzers) {
			b.WriteString(d.String())
			b.WriteByte('\n')
		}
		return b.String()
	}
	reverse := func(n int, swap func(i, j int)) {
		for i, j := 0, n-1; i < j; i, j = i+1, j-1 {
			swap(i, j)
		}
	}

	forward := render(pkgs, mkAnalyzers())
	if forward == "" {
		t.Fatal("fixtures produced no diagnostics; the order test is vacuous")
	}
	revPkgs := append([]*lint.Package(nil), pkgs...)
	reverse(len(revPkgs), func(i, j int) { revPkgs[i], revPkgs[j] = revPkgs[j], revPkgs[i] })
	revAnalyzers := mkAnalyzers()
	reverse(len(revAnalyzers), func(i, j int) { revAnalyzers[i], revAnalyzers[j] = revAnalyzers[j], revAnalyzers[i] })
	if backward := render(revPkgs, revAnalyzers); backward != forward {
		t.Errorf("diagnostic order depends on input order.\nforward:\n%s\nbackward:\n%s", forward, backward)
	}
}

// TestSymlintExitCodes drives the real CLI contract end to end: non-zero
// with a correct file:line diagnostic on a fixture, zero on clean packages.
func TestRunOnCleanPackage(t *testing.T) {
	l, err := sharedLoader()
	if err != nil {
		t.Fatal(err)
	}
	pkgs, err := l.Load("./internal/sim")
	if err != nil {
		t.Fatal(err)
	}
	diags := lint.Run(pkgs, lint.DefaultAnalyzers())
	for _, d := range diags {
		t.Errorf("unexpected diagnostic on internal/sim: %s", d)
	}
}
