package lint

import (
	"fmt"
	"path/filepath"
	"regexp"
	"strconv"
	"testing"
)

// The golden fixtures under testdata/src/fix form a fake module root
// ("fix") whose packages re-create the shapes each analyzer keys on:
// path suffixes (internal/mapreduce, internal/cliio, /core), file-name
// conventions (codec*, spill*), and type names (Emitter, MsgType,
// sync.Pool). Expectations are written in the fixtures themselves:
//
//	out.Emit(k, v) // want `\[determinism\] Emit inside a range`
//
// A want comment holds one or more backquoted regexes, each of which
// must match a diagnostic (rendered "[rule] message") on the comment's
// line; `// want+N` shifts the expected line down by N (used where the
// diagnostic lands on a //lint:allow comment line, which cannot carry
// a second comment). Every diagnostic must be claimed by some want and
// every want must match some diagnostic, so the fixtures pin firing
// and non-firing behavior at once.
var (
	wantComment = regexp.MustCompile(`^//[ \t]*want([+-][0-9]+)?[ \t]+(.*)$`)
	wantPattern = regexp.MustCompile("`([^`]+)`")
)

type expectation struct {
	file    string
	line    int
	re      *regexp.Regexp
	src     string // where the want comment lives, for error messages
	matched bool
}

func loadFixtures(t *testing.T) (*Loader, []*Package) {
	t.Helper()
	root, err := filepath.Abs(filepath.Join("testdata", "src", "fix"))
	if err != nil {
		t.Fatal(err)
	}
	l := NewLoader()
	l.AddRoot("fix", root)
	pkgs, err := l.LoadModule("fix")
	if err != nil {
		t.Fatal(err)
	}
	return l, pkgs
}

func collectWants(t *testing.T, l *Loader, pkgs []*Package) []*expectation {
	t.Helper()
	var wants []*expectation
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, cg := range f.Comments {
				for _, c := range cg.List {
					m := wantComment.FindStringSubmatch(c.Text)
					if m == nil {
						continue
					}
					pos := l.Fset.Position(c.Pos())
					offset := 0
					if m[1] != "" {
						offset, _ = strconv.Atoi(m[1])
					}
					pats := wantPattern.FindAllStringSubmatch(m[2], -1)
					if len(pats) == 0 {
						t.Errorf("%s: want comment with no backquoted pattern: %s", pos, c.Text)
						continue
					}
					for _, p := range pats {
						re, err := regexp.Compile(p[1])
						if err != nil {
							t.Errorf("%s: bad want pattern %q: %v", pos, p[1], err)
							continue
						}
						wants = append(wants, &expectation{
							file: pos.Filename,
							line: pos.Line + offset,
							re:   re,
							src:  fmt.Sprintf("%s:%d", pos.Filename, pos.Line),
						})
					}
				}
			}
		}
	}
	if len(wants) == 0 {
		t.Fatal("no want expectations found in fixtures")
	}
	return wants
}

func TestGolden(t *testing.T) {
	l, pkgs := loadFixtures(t)
	wants := collectWants(t, l, pkgs)
	diags := Run(l.Fset, pkgs, All())

	for _, d := range diags {
		rendered := fmt.Sprintf("[%s] %s", d.Rule, d.Message)
		claimed := false
		for _, w := range wants {
			if w.file == d.Pos.Filename && w.line == d.Pos.Line && w.re.MatchString(rendered) {
				w.matched = true
				claimed = true
			}
		}
		if !claimed {
			t.Errorf("unexpected diagnostic: %s", d)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s: no diagnostic on line %d matched %q", w.src, w.line, w.re)
		}
	}
}

// TestGoldenDiagnosticsSorted pins the driver-facing contract that Run
// returns findings in file/line order, so repolint output is stable
// across runs.
func TestGoldenDiagnosticsSorted(t *testing.T) {
	l, pkgs := loadFixtures(t)
	diags := Run(l.Fset, pkgs, All())
	if len(diags) < 2 {
		t.Fatalf("expected several findings, got %d", len(diags))
	}
	for i := 1; i < len(diags); i++ {
		a, b := diags[i-1], diags[i]
		if a.Pos.Filename > b.Pos.Filename ||
			(a.Pos.Filename == b.Pos.Filename && a.Pos.Line > b.Pos.Line) {
			t.Errorf("diagnostics out of order: %s then %s", a, b)
		}
	}
}
