// Package litmusdsl is a small litmus-test language for the abstract
// TSO[S] machine, in the spirit of the herd/litmus tools the memory-model
// literature uses. A test names a handful of shared variables, gives each
// process a straight-line program of stores, loads, fences and CASes, and
// asks whether a final condition is reachable:
//
//	name: SB
//	model: TSO
//	sbuf: 4
//	init: x=0 y=0
//	P0: x=1; r0=y
//	P1: y=1; r1=x
//	exists: P0.r0=0 & P1.r1=0
//	expect: allowed
//
// Run verifies the `expect` verdict by exhaustive schedule exploration
// (tso.ExploreExhaustive), so "forbidden" means proved unreachable over every
// interleaving and drain schedule, not merely unobserved.
//
// Grammar notes: identifiers matching r<digits> are per-process registers;
// anything else on the right of a load or left of a store is a shared
// variable. Statements are semicolon-separated. The condition is a
// conjunction of `P<i>.r<j>=<int>` register terms and `<var>=<int>` final
// memory terms.
package litmusdsl

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"

	"repro/internal/tso"
)

// StmtKind enumerates the statement forms.
type StmtKind int

// Statement kinds.
const (
	StmtStore StmtKind = iota // var = const
	StmtLoad                  // reg = var
	StmtFence                 // fence
	StmtCAS                   // reg = cas var old new
)

// Stmt is one parsed statement.
type Stmt struct {
	Kind StmtKind
	Var  string // shared variable (store/load/cas)
	Reg  string // destination register (load/cas)
	Val  uint64 // store value / CAS new
	Old  uint64 // CAS expected
}

// CondTerm is one conjunct of the exists condition.
type CondTerm struct {
	Proc int    // process index for register terms; -1 for memory terms
	Reg  string // register name (register terms)
	Var  string // variable name (memory terms)
	Val  uint64
}

// Test is a parsed litmus test.
type Test struct {
	Name   string
	Model  tso.MemoryModel
	SBuf   int // store buffer size (default 2)
	Init   map[string]uint64
	Procs  [][]Stmt
	Exists []CondTerm
	// Expect is the verdict under the declared model: "allowed" means the
	// exists condition is reachable, "forbidden" that it is not.
	Expect string
}

var (
	regIdent = regexp.MustCompile(`^r[0-9]+$`)
	varIdent = regexp.MustCompile(`^[a-z][a-z0-9_]*$`)
	procHead = regexp.MustCompile(`^P([0-9]+)$`)
)

// Parse reads a litmus test from its textual form. Lines are `key: value`;
// blank lines and `#` comments are ignored.
func Parse(src string) (*Test, error) {
	t := &Test{SBuf: 2, Init: map[string]uint64{}, Expect: "allowed"}
	procs := map[int][]Stmt{}
	maxProc := -1
	for lineNo, raw := range strings.Split(src, "\n") {
		line := strings.TrimSpace(raw)
		if i := strings.Index(line, "#"); i >= 0 {
			line = strings.TrimSpace(line[:i])
		}
		if line == "" {
			continue
		}
		key, val, ok := strings.Cut(line, ":")
		if !ok {
			return nil, fmt.Errorf("line %d: expected `key: value`, got %q", lineNo+1, line)
		}
		key = strings.TrimSpace(key)
		val = strings.TrimSpace(val)
		switch {
		case key == "name":
			t.Name = val
		case key == "model":
			switch strings.ToUpper(val) {
			case "TSO":
				t.Model = tso.ModelTSO
			case "PSO":
				t.Model = tso.ModelPSO
			default:
				return nil, fmt.Errorf("line %d: unknown model %q", lineNo+1, val)
			}
		case key == "sbuf":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return nil, fmt.Errorf("line %d: bad sbuf %q", lineNo+1, val)
			}
			t.SBuf = n
		case key == "init":
			if err := parseInit(t, val); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
			}
		case key == "exists":
			terms, err := parseExists(val)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo+1, err)
			}
			t.Exists = terms
		case key == "expect":
			if val != "allowed" && val != "forbidden" {
				return nil, fmt.Errorf("line %d: expect must be allowed or forbidden, got %q", lineNo+1, val)
			}
			t.Expect = val
		case procHead.MatchString(key):
			idx, _ := strconv.Atoi(key[1:])
			stmts, err := parseStmts(val)
			if err != nil {
				return nil, fmt.Errorf("line %d (%s): %v", lineNo+1, key, err)
			}
			if _, dup := procs[idx]; dup {
				return nil, fmt.Errorf("line %d: duplicate process %s", lineNo+1, key)
			}
			procs[idx] = stmts
			if idx > maxProc {
				maxProc = idx
			}
		default:
			return nil, fmt.Errorf("line %d: unknown key %q", lineNo+1, key)
		}
	}
	if t.Name == "" {
		return nil, fmt.Errorf("litmusdsl: test has no name")
	}
	if maxProc < 0 {
		return nil, fmt.Errorf("litmusdsl: test %q has no processes", t.Name)
	}
	for i := 0; i <= maxProc; i++ {
		stmts, ok := procs[i]
		if !ok {
			return nil, fmt.Errorf("litmusdsl: missing process P%d", i)
		}
		t.Procs = append(t.Procs, stmts)
	}
	if len(t.Exists) == 0 {
		return nil, fmt.Errorf("litmusdsl: test %q has no exists condition", t.Name)
	}
	return t, nil
}

func parseInit(t *Test, s string) error {
	for _, f := range strings.Fields(s) {
		name, v, ok := strings.Cut(f, "=")
		if !ok || !varIdent.MatchString(name) || regIdent.MatchString(name) {
			return fmt.Errorf("bad init %q", f)
		}
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			return fmt.Errorf("bad init value %q", f)
		}
		t.Init[name] = n
	}
	return nil
}

func parseStmts(s string) ([]Stmt, error) {
	var out []Stmt
	for _, part := range strings.Split(s, ";") {
		part = strings.TrimSpace(part)
		if part == "" {
			continue
		}
		if part == "fence" {
			out = append(out, Stmt{Kind: StmtFence})
			continue
		}
		lhs, rhs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad statement %q", part)
		}
		lhs = strings.TrimSpace(lhs)
		rhs = strings.TrimSpace(rhs)
		switch {
		case regIdent.MatchString(lhs) && strings.HasPrefix(rhs, "cas "):
			f := strings.Fields(rhs)
			if len(f) != 4 || !isVar(f[1]) {
				return nil, fmt.Errorf("bad cas %q (want `r = cas var old new`)", part)
			}
			old, err1 := strconv.ParseUint(f[2], 10, 64)
			nv, err2 := strconv.ParseUint(f[3], 10, 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("bad cas values in %q", part)
			}
			out = append(out, Stmt{Kind: StmtCAS, Reg: lhs, Var: f[1], Old: old, Val: nv})
		case regIdent.MatchString(lhs):
			if !isVar(rhs) {
				return nil, fmt.Errorf("load %q: %q is not a variable", part, rhs)
			}
			out = append(out, Stmt{Kind: StmtLoad, Reg: lhs, Var: rhs})
		case isVar(lhs):
			n, err := strconv.ParseUint(rhs, 10, 64)
			if err != nil {
				return nil, fmt.Errorf("store %q: %q is not a constant", part, rhs)
			}
			out = append(out, Stmt{Kind: StmtStore, Var: lhs, Val: n})
		default:
			return nil, fmt.Errorf("bad statement %q", part)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty process body")
	}
	return out, nil
}

func isVar(s string) bool {
	return varIdent.MatchString(s) && !regIdent.MatchString(s) && s != "fence" && s != "cas"
}

func parseExists(s string) ([]CondTerm, error) {
	var out []CondTerm
	for _, part := range strings.Split(s, "&") {
		part = strings.TrimSpace(part)
		lhs, rhs, ok := strings.Cut(part, "=")
		if !ok {
			return nil, fmt.Errorf("bad condition term %q", part)
		}
		lhs = strings.TrimSpace(lhs)
		v, err := strconv.ParseUint(strings.TrimSpace(rhs), 10, 64)
		if err != nil {
			return nil, fmt.Errorf("bad condition value in %q", part)
		}
		if proc, reg, ok := strings.Cut(lhs, "."); ok {
			m := procHead.FindStringSubmatch(proc)
			if m == nil || !regIdent.MatchString(reg) {
				return nil, fmt.Errorf("bad register term %q (want P<i>.r<j>=v)", part)
			}
			idx, _ := strconv.Atoi(m[1])
			out = append(out, CondTerm{Proc: idx, Reg: reg, Val: v})
			continue
		}
		if !isVar(lhs) {
			return nil, fmt.Errorf("bad memory term %q", part)
		}
		out = append(out, CondTerm{Proc: -1, Var: lhs, Val: v})
	}
	return out, nil
}
