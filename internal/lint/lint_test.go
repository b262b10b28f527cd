package lint

import (
	"bufio"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// wantRe matches one expectation comment in a fixture: `// want "regex"`,
// or the block form `/* want "regex" */` used on lines that already carry
// a //lint:ignore directive (a line comment cannot follow another).
var wantRe = regexp.MustCompile(`want "([^"]+)"`)

// expectation is one `want` annotation: a finding must land on this
// file:line with a message matching pattern.
type expectation struct {
	file    string
	line    int
	pattern *regexp.Regexp
	met     bool
}

// collectWants scans every .go file under dir for want annotations.
func collectWants(t *testing.T, dir string) []*expectation {
	t.Helper()
	var wants []*expectation
	err := filepath.WalkDir(dir, func(path string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, ".go") {
			return err
		}
		rel, err := filepath.Rel(dir, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		sc := bufio.NewScanner(f)
		for line := 1; sc.Scan(); line++ {
			for _, m := range wantRe.FindAllStringSubmatch(sc.Text(), -1) {
				wants = append(wants, &expectation{
					file: rel, line: line, pattern: regexp.MustCompile(m[1]),
				})
			}
		}
		return sc.Err()
	})
	if err != nil {
		t.Fatalf("collect wants under %s: %v", dir, err)
	}
	return wants
}

// runGolden loads one fixture module from testdata/src, runs the given
// analyzers over it, and asserts findings and want annotations match in
// both directions: every finding is expected, every expectation is met.
// The fixture's clean twin packages carry no annotations, so any finding
// there fails the test.
func runGolden(t *testing.T, fixture string, analyzers ...Analyzer) {
	t.Helper()
	dir, err := filepath.Abs(filepath.Join("testdata", "src", fixture))
	if err != nil {
		t.Fatal(err)
	}
	prog, err := Load(dir, "./...")
	if err != nil {
		t.Fatalf("load fixture %s: %v", fixture, err)
	}
	findings := prog.Run(analyzers)
	wants := collectWants(t, dir)
	if len(wants) == 0 {
		t.Fatalf("fixture %s has no want annotations: the golden test would vacuously pass", fixture)
	}
	for _, f := range findings {
		matched := false
		for _, w := range wants {
			if !w.met && w.file == f.File && w.line == f.Line && w.pattern.MatchString(f.Message) {
				w.met = true
				matched = true
				break
			}
		}
		if !matched {
			t.Errorf("unexpected finding: %s", f)
		}
	}
	for _, w := range wants {
		if !w.met {
			t.Errorf("%s:%d: want finding matching %q, got none", w.file, w.line, w.pattern)
		}
	}
}

func TestNetsimImportFixture(t *testing.T) { runGolden(t, "netsimimport", NewNetsimImport()) }

func TestDepFreeFixture(t *testing.T) { runGolden(t, "depfree", NewDepFree()) }

func TestCtxFlowFixture(t *testing.T) { runGolden(t, "ctxflow", NewCtxFlow()) }

func TestLockHeldFixture(t *testing.T) { runGolden(t, "lockheld", NewLockHeld()) }

func TestSeedPinFixture(t *testing.T) { runGolden(t, "seedpin", NewSeedPin()) }

func TestErrCmpFixture(t *testing.T) { runGolden(t, "errcmp", NewErrCmp()) }

func TestStatsSnapFixture(t *testing.T) { runGolden(t, "statssnap", NewStatsSnap()) }

// TestDeadCodeFixture covers every liveness rule: roots (main, init, blank
// vars, root-package API), references, interface-named methods (local and
// stdlib), test-only and example-only callers, test support, and a type's
// directive covering its methods.
func TestDeadCodeFixture(t *testing.T) { runGolden(t, "deadcode", NewDeadCode()) }

// TestDeadCodeNeedsWholeModule checks that a load narrower than ./...
// reports nothing: a declaration's users may not have been loaded.
func TestDeadCodeNeedsWholeModule(t *testing.T) {
	prog, err := Load(filepath.Join("testdata", "src", "deadcode"), "./internal/...")
	if err != nil {
		t.Fatal(err)
	}
	if findings := prog.Run([]Analyzer{NewDeadCode()}); len(findings) != 0 {
		t.Fatalf("partial load reported %d findings, first %s", len(findings), findings[0])
	}
}

// TestSuppressFixture drives the directive machinery through ctxflow:
// working same-line and line-above suppressions vanish, an unsuppressed
// violation still fires, and unused or malformed directives surface as
// findings under the "lint" meta analyzer.
func TestSuppressFixture(t *testing.T) { runGolden(t, "suppress", NewCtxFlow()) }

func TestFindingString(t *testing.T) {
	f := Finding{Analyzer: "ctxflow", File: "internal/x/y.go", Line: 12, Col: 3, Message: "boom"}
	if got, want := f.String(), "internal/x/y.go:12: [ctxflow] boom"; got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

func TestWriteJSONNeverNull(t *testing.T) {
	var sb strings.Builder
	if err := WriteJSON(&sb, nil); err != nil {
		t.Fatal(err)
	}
	if got := strings.TrimSpace(sb.String()); got != "[]" {
		t.Fatalf("WriteJSON(nil) = %q, want []", got)
	}
}
