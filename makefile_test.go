package snakes_test

import (
	"os"
	"os/exec"
	"regexp"
	"strings"
	"testing"
)

var (
	makeRunFlag  = regexp.MustCompile(`-run '([^']+)'`)
	makeFuzzFlag = regexp.MustCompile(`-fuzz=(\S+)`)
)

// TestMakefileGateNames is `make gate-names`: every alternative of every
// -run '…' pattern (and every -fuzz= target) in the Makefile must match a
// test in one of that line's packages. A gate whose test was renamed or
// moved otherwise prints "no tests to run" and passes.
func TestMakefileGateNames(t *testing.T) {
	if os.Getenv("GATE_NAMES") == "" {
		t.Skip("lists every package's tests; `make gate-names` sets GATE_NAMES=1")
	}
	mk, err := os.ReadFile("Makefile")
	if err != nil {
		t.Fatal(err)
	}
	type gate struct {
		line int
		alts []string
		pkgs []string
	}
	var gates []gate
	var all []string // every package a gate names, once
	seen := map[string]bool{}
	for n, line := range strings.Split(string(mk), "\n") {
		if !strings.Contains(line, "$(GO) test") {
			continue
		}
		g := gate{line: n + 1}
		if m := makeRunFlag.FindStringSubmatch(line); m != nil {
			g.alts = strings.Split(m[1], "|")
		}
		if m := makeFuzzFlag.FindStringSubmatch(line); m != nil {
			g.alts = append(g.alts, m[1])
		}
		for _, f := range strings.Fields(line) {
			if f == "." || strings.HasPrefix(f, "./") {
				g.pkgs = append(g.pkgs, f)
				if !seen[f] {
					seen[f] = true
					all = append(all, f)
				}
			}
		}
		if len(g.alts) > 0 {
			gates = append(gates, g)
		}
	}
	// One listing of all of them: names, then "ok <import path> <time>".
	out, err := exec.Command("go", append([]string{"test", "-list", "."}, all...)...).CombinedOutput()
	if err != nil {
		t.Fatalf("go test -list . %v: %v\n%s", all, err, out)
	}
	listed := map[string][]string{} // ./package → its test, benchmark and fuzz names
	var names []string
	for _, l := range strings.Split(string(out), "\n") {
		if f := strings.Fields(l); len(f) >= 2 && f[0] == "ok" {
			listed["."+strings.TrimPrefix(f[1], "repro")] = names
			names = nil
		} else if len(f) == 1 {
			names = append(names, f[0])
		}
	}
	for _, g := range gates {
	alt:
		for _, alt := range g.alts {
			re, err := regexp.Compile(alt)
			if err != nil {
				t.Errorf("Makefile:%d: pattern %q: %v", g.line, alt, err)
				continue
			}
			for _, pkg := range g.pkgs {
				for _, name := range listed[pkg] {
					if re.MatchString(name) {
						continue alt
					}
				}
			}
			t.Errorf("Makefile:%d: %q matches no test in %v", g.line, alt, g.pkgs)
		}
	}
	if len(gates) == 0 {
		t.Error("found no -run pattern in the Makefile")
	}
}
