package analysis

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// RunFixture loads the fixture package at dir (a path relative to the
// calling test's working directory, typically under testdata/src/...)
// and checks the analyzer's diagnostics against the fixture's
// expectations — the analysistest convention:
//
//	q.ch <- v // want `channel send while holding q\.mu`
//
// Each `// want` comment holds one or more back-quoted or quoted
// regular expressions that must match diagnostics reported on that
// line; diagnostics without a matching expectation, and expectations
// without a matching diagnostic, fail the test.
func RunFixture(t *testing.T, a *Analyzer, dir string) {
	t.Helper()
	pkgs, err := Load(LoadConfig{}, dir)
	if err != nil {
		t.Fatalf("load %s: %v", dir, err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("load %s: got %d packages, want 1", dir, len(pkgs))
	}
	pkg := pkgs[0]
	if pkg.IllTyped {
		t.Fatalf("fixture %s does not type-check: %v", dir, pkg.Errs)
	}

	wants := collectWants(t, pkg)
	pass := &Pass{Analyzer: a, Pkg: pkg}
	a.Run(pass)

	matched := make(map[*wantExpect]bool)
	for _, d := range pass.diags {
		key := lineKey{file: d.Pos.Filename, line: d.Pos.Line}
		var hit *wantExpect
		for _, w := range wants[key] {
			if !matched[w] && w.rx.MatchString(d.Message) {
				hit = w
				break
			}
		}
		if hit == nil {
			t.Errorf("%s:%d: unexpected diagnostic: %s", d.Pos.Filename, d.Pos.Line, d.Message)
			continue
		}
		matched[hit] = true
	}
	for key, ws := range wants {
		for _, w := range ws {
			if !matched[w] {
				t.Errorf("%s:%d: expected diagnostic matching %q, got none", key.file, key.line, w.rx)
			}
		}
	}
}

type lineKey struct {
	file string
	line int
}

type wantExpect struct {
	rx *regexp.Regexp
}

// collectWants parses `// want` comments from the fixture syntax.
func collectWants(t *testing.T, pkg *Package) map[lineKey][]*wantExpect {
	t.Helper()
	wants := make(map[lineKey][]*wantExpect)
	for _, file := range pkg.Syntax {
		for _, cg := range file.Comments {
			for _, c := range cg.List {
				text := strings.TrimPrefix(c.Text, "//")
				text = strings.TrimSpace(text)
				if !strings.HasPrefix(text, "want ") {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				rxs, err := parseWantPatterns(strings.TrimPrefix(text, "want "))
				if err != nil {
					t.Fatalf("%s:%d: bad want comment: %v", pos.Filename, pos.Line, err)
				}
				key := lineKey{file: pos.Filename, line: pos.Line}
				for _, rx := range rxs {
					wants[key] = append(wants[key], &wantExpect{rx: rx})
				}
			}
		}
	}
	return wants
}

// parseWantPatterns splits a want payload into quoted regexps. Both
// `backquoted` and "quoted" (with strconv unquoting) forms work.
func parseWantPatterns(s string) ([]*regexp.Regexp, error) {
	var out []*regexp.Regexp
	s = strings.TrimSpace(s)
	for s != "" {
		var raw string
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquote in %q", s)
			}
			raw = s[1 : 1+end]
			s = s[2+end:]
		case '"':
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("bad quoted pattern in %q: %v", s, err)
			}
			raw, err = strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			s = s[len(q):]
		default:
			return nil, fmt.Errorf("pattern must be quoted or backquoted: %q", s)
		}
		rx, err := regexp.Compile(raw)
		if err != nil {
			return nil, err
		}
		out = append(out, rx)
		s = strings.TrimSpace(s)
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no patterns")
	}
	return out, nil
}
