// Command docslint keeps the documentation honest. It extracts every
// ```go and ```frame fence from the given markdown files and checks it:
//
//   - ```go fences that are complete programs (they contain a package
//     clause) are compiled against this repository in a throwaway
//     module; partial snippets are syntax-checked with go/parser, tried
//     first as top-level declarations and then wrapped in a function
//     body.
//   - ```frame fences (PROTOCOL.md's annotated hex dumps of wire
//     frames) are parsed as hex bytes — comments after "--" stripped —
//     and the leading uint32 big-endian length prefix must equal the
//     number of payload bytes that follow it, and the payload must be
//     at least the 6-byte request/response header.
//
// Run with no arguments it also checks the Makefile's race set: every
// alternative of the `-race -run '…'` pattern must match a Test or Fuzz
// function in one of the packages that line names, since `go test -run`
// passes silently over an alternative that matches nothing. And every
// Test or Fuzz name that README.md or DESIGN.md cites must be a function
// of the repository's tests (a name cited with a trailing * must begin
// one). And DESIGN.md must not be longer than designBudget lines.
//
// A snippet that drifts from the real API, stops parsing, or declares
// the wrong frame length, a race-set alternative whose tests were
// deleted or renamed, a cited test that no longer exists, and a
// DESIGN.md past its budget fail `make verify` instead of rotting
// silently.
//
// Usage:
//
//	docslint [file.md ...]   # default: README.md DESIGN.md PROTOCOL.md EXPERIMENTS.md, the Makefile's race set, the tests README.md and DESIGN.md cite, and DESIGN.md's length
package main

import (
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
)

func main() {
	files := os.Args[1:]
	failed := 0
	checked := 0
	if len(files) == 0 {
		files = []string{"README.md", "DESIGN.md", "PROTOCOL.md", "EXPERIMENTS.md"}
		alts, err := checkRaceSet("Makefile")
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "docslint: Makefile: %v\n", err)
		}
		checked += alts
		names, err := checkCitedTests("README.md", "DESIGN.md")
		if err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
		}
		checked += names
		checked++
		if err := checkLength("DESIGN.md", designBudget); err != nil {
			failed++
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
		}
	}
	for _, f := range files {
		fences, err := extractFences(f)
		if err != nil {
			fmt.Fprintf(os.Stderr, "docslint: %v\n", err)
			os.Exit(1)
		}
		for _, fence := range fences {
			checked++
			var err error
			switch fence.lang {
			case "go":
				err = checkFence(fence.code)
			case "frame":
				err = checkFrame(fence.code)
			}
			if err != nil {
				failed++
				fmt.Fprintf(os.Stderr, "docslint: %s:%d: %v\n", f, fence.line, err)
			}
		}
	}
	if failed > 0 {
		fmt.Fprintf(os.Stderr, "docslint: %d of %d checks failed\n", failed, checked)
		os.Exit(1)
	}
	fmt.Printf("docslint: %d snippets, race-set alternatives and cited tests ok\n", checked)
}

// designBudget is the most lines DESIGN.md may have. It only falls: a
// change that raises it says why in CHANGES.md.
const designBudget = 1395

// checkLength fails when file has more than budget lines.
func checkLength(file string, budget int) error {
	b, err := os.ReadFile(file)
	if err != nil {
		return err
	}
	if n := strings.Count(string(b), "\n"); n > budget {
		return fmt.Errorf("%s has %d lines, past its budget of %d: shorten it, or raise designBudget and say why in CHANGES.md", file, n, budget)
	}
	return nil
}

// raceLine finds the Makefile's race set: the quoted pattern after
// `-race -run` and the package paths that follow it.
var raceLine = regexp.MustCompile(`-race -run '([^']*)'((?:\s+\./\S+)+)`)

// checkRaceSet checks that every alternative of the Makefile's race-set
// pattern matches the name of a Test or Fuzz function in the packages
// the line names, and returns how many alternatives it checked.
func checkRaceSet(makefile string) (int, error) {
	blob, err := os.ReadFile(makefile)
	if err != nil {
		return 0, err
	}
	m := raceLine.FindSubmatch(blob)
	if m == nil {
		return 0, fmt.Errorf("no `-race -run '…' ./pkg …` line")
	}
	var files []string
	for _, pkg := range strings.Fields(string(m[2])) {
		matched, err := filepath.Glob(filepath.Join(pkg, "*_test.go"))
		if err != nil {
			return 0, err
		}
		files = append(files, matched...)
	}
	names, err := testFuncs(files)
	if err != nil {
		return 0, err
	}
	var dead []string
	alts := strings.Split(strings.ReplaceAll(string(m[1]), "$$", "$"), "|")
	for _, alt := range alts {
		re, err := regexp.Compile(alt)
		if err != nil {
			return 0, fmt.Errorf("race-set alternative %q: %v", alt, err)
		}
		if !slices.ContainsFunc(names, re.MatchString) {
			dead = append(dead, alt)
		}
	}
	if len(dead) > 0 {
		return len(alts), fmt.Errorf("race-set alternatives %q match no Test or Fuzz function in%s", dead, m[2])
	}
	return len(alts), nil
}

// testFuncs returns the names of the Test and Fuzz functions the Go
// files declare.
func testFuncs(files []string) ([]string, error) {
	var names []string
	for _, f := range files {
		tree, err := parser.ParseFile(token.NewFileSet(), f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		for _, d := range tree.Decls {
			fn, ok := d.(*ast.FuncDecl)
			if ok && fn.Recv == nil && (strings.HasPrefix(fn.Name.Name, "Test") || strings.HasPrefix(fn.Name.Name, "Fuzz")) {
				names = append(names, fn.Name.Name)
			}
		}
	}
	return names, nil
}

// citedTest matches a Test or Fuzz function name in prose; a trailing *
// cites every test whose name begins with the rest.
var citedTest = regexp.MustCompile(`\b(?:Test|Fuzz)[A-Z0-9_][A-Za-z0-9_]*\*?`)

// checkCitedTests checks that every Test or Fuzz name the markdown files
// cite is declared by a _test.go file of the repository, and returns how
// many distinct names it checked.
func checkCitedTests(docs ...string) (int, error) {
	var files []string
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		switch {
		case err != nil:
			return err
		case d.IsDir() && path != "." && strings.HasPrefix(d.Name(), "."):
			return filepath.SkipDir
		case strings.HasSuffix(path, "_test.go"):
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		return 0, err
	}
	names, err := testFuncs(files)
	if err != nil {
		return 0, err
	}
	var cited, missing []string
	for _, doc := range docs {
		blob, err := os.ReadFile(doc)
		if err != nil {
			return 0, err
		}
		for _, name := range citedTest.FindAllString(string(blob), -1) {
			if slices.Contains(cited, name) {
				continue
			}
			cited = append(cited, name)
			prefix, wild := strings.CutSuffix(name, "*")
			if !slices.ContainsFunc(names, func(n string) bool { return n == name || wild && strings.HasPrefix(n, prefix) }) {
				missing = append(missing, doc+": "+name)
			}
		}
	}
	if len(missing) > 0 {
		return len(cited), fmt.Errorf("cited tests that no _test.go declares: %q", missing)
	}
	return len(cited), nil
}

type fence struct {
	line int    // 1-based line of the opening ```lang
	lang string // "go" or "frame"
	code string
}

// extractFences returns the contents of every ```go and ```frame code
// fence in the markdown file, with the line number of its opening
// marker.
func extractFences(path string) ([]fence, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var out []fence
	lines := strings.Split(string(blob), "\n")
	for i := 0; i < len(lines); i++ {
		lang := strings.TrimPrefix(strings.TrimSpace(lines[i]), "```")
		if lang == strings.TrimSpace(lines[i]) || (lang != "go" && lang != "frame") {
			continue
		}
		start := i + 1
		var body []string
		for i++; i < len(lines); i++ {
			if strings.TrimSpace(lines[i]) == "```" {
				break
			}
			body = append(body, lines[i])
		}
		if i == len(lines) {
			return nil, fmt.Errorf("%s:%d: unterminated ```%s fence", path, start, lang)
		}
		out = append(out, fence{line: start, lang: lang, code: strings.Join(body, "\n") + "\n"})
	}
	return out, nil
}

// checkFrame validates one annotated hex dump of a wire frame: strip
// "--" comments, parse the remaining tokens as hex bytes, and require
// the 4-byte big-endian length prefix to equal the actual payload size
// (which must itself hold at least the 6-byte header).
func checkFrame(code string) error {
	var raw []byte
	for _, line := range strings.Split(code, "\n") {
		if i := strings.Index(line, "--"); i >= 0 {
			line = line[:i]
		}
		for _, tok := range strings.Fields(line) {
			b, err := hex.DecodeString(tok)
			if err != nil || len(b) != 1 {
				return fmt.Errorf("frame: %q is not a hex byte", tok)
			}
			raw = append(raw, b[0])
		}
	}
	if len(raw) < 4 {
		return fmt.Errorf("frame: %d bytes, no room for the length prefix", len(raw))
	}
	declared := binary.BigEndian.Uint32(raw)
	payload := len(raw) - 4
	if int(declared) != payload {
		return fmt.Errorf("frame: length prefix says %d payload bytes, dump has %d", declared, payload)
	}
	if payload < 6 {
		return fmt.Errorf("frame: %d-byte payload is below the 6-byte header minimum", payload)
	}
	return nil
}

// checkFence validates one snippet: full programs compile, fragments
// must at least parse.
func checkFence(code string) error {
	if strings.Contains(code, "package ") && strings.HasPrefix(strings.TrimSpace(code), "package ") {
		return compileProgram(code)
	}
	return parseFragment(code)
}

// parseFragment syntax-checks a snippet without a package clause. It is
// accepted if it parses either as top-level declarations or as
// statements inside a function body.
func parseFragment(code string) error {
	asDecls := "package p\n\n" + code
	if _, err := parser.ParseFile(token.NewFileSet(), "snippet.go", asDecls, 0); err == nil {
		return nil
	}
	asBody := "package p\n\nfunc _() {\n" + code + "\n}\n"
	if _, err := parser.ParseFile(token.NewFileSet(), "snippet.go", asBody, 0); err != nil {
		return fmt.Errorf("fragment does not parse as declarations or statements: %v", err)
	}
	return nil
}

// compileProgram builds a complete snippet in a temporary module whose
// `replace` directive points at this repository, so imports of the
// public package resolve to the working tree being linted.
func compileProgram(code string) error {
	repo, err := os.Getwd()
	if err != nil {
		return err
	}
	if _, err := os.Stat(filepath.Join(repo, "go.mod")); err != nil {
		return fmt.Errorf("must run from the repository root: %v", err)
	}
	dir, err := os.MkdirTemp("", "docslint-*")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	gomod := fmt.Sprintf("module docslintcheck\n\ngo 1.22\n\nrequire bvtree v0.0.0\n\nreplace bvtree => %s\n", repo)
	if err := os.WriteFile(filepath.Join(dir, "go.mod"), []byte(gomod), 0o644); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "snippet.go"), []byte(code), 0o644); err != nil {
		return err
	}
	cmd := exec.Command("go", "build", "./...")
	cmd.Dir = dir
	if out, err := cmd.CombinedOutput(); err != nil {
		return fmt.Errorf("snippet does not compile:\n%s", out)
	}
	return nil
}
