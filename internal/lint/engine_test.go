package lint

import (
	"go/ast"
	"go/parser"
	"go/token"
	"strings"
	"testing"
)

// The tests in this file exercise the chargeflow engine (cfg.go,
// dataflow.go) as an engine: each builds the CFG of a small function from
// source and asserts edges and query answers directly, without an analyzer
// in between. Every statement in the sources is a call or a condition on a
// uniquely named identifier, and that name is the node's name below.

// parseFunc parses a function body and returns it with its CFG.
func parseFunc(t *testing.T, body string) (*ast.BlockStmt, *cfg) {
	t.Helper()
	src := "package p\nfunc f() {\n" + body + "\n}"
	file, err := parser.ParseFile(token.NewFileSet(), "p.go", src, parser.SkipObjectResolution)
	if err != nil {
		t.Fatalf("parsing %q: %v", body, err)
	}
	b := file.Decls[0].(*ast.FuncDecl).Body
	return b, buildCFG(b)
}

func parseBody(t *testing.T, body string) *cfg {
	t.Helper()
	_, g := parseFunc(t, body)
	return g
}

// nodeName names a CFG node after the identifier its statement evaluates:
// the callee of a call statement, the condition/tag/range operand of a
// compound statement, or the keyword (plus label) of a branch.
func nodeName(g *cfg, n *cnode) string {
	switch {
	case n == g.entry:
		return "entry"
	case n == g.exit:
		return "exit"
	case n.stmt == nil:
		return ""
	}
	switch s := n.stmt.(type) {
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			return calleeName(call)
		}
	case *ast.BranchStmt:
		if s.Label != nil {
			return s.Tok.String() + " " + s.Label.Name
		}
		return s.Tok.String()
	case *ast.ReturnStmt:
		return "return"
	case *ast.DeferStmt:
		return "defer"
	case *ast.SelectStmt:
		return "select"
	case *ast.ForStmt:
		if s.Cond == nil {
			return "for"
		}
	}
	if e, ok := stmtEvalNode(n.stmt).(ast.Expr); ok {
		return exprString(e)
	}
	return ""
}

// named finds the node with the given name.
func named(t *testing.T, g *cfg, name string) *cnode {
	t.Helper()
	for _, n := range g.nodes {
		if nodeName(g, n) == name {
			return n
		}
	}
	t.Fatalf("no CFG node named %q", name)
	return nil
}

// flowsTo reports whether control can pass from a to b through synthetic
// (join/after) nodes only: an edge between the two statements.
func flowsTo(a, b *cnode) bool {
	seen := map[*cnode]bool{}
	var walk func(n *cnode) bool
	walk = func(n *cnode) bool {
		for _, s := range n.succs {
			if s == b {
				return true
			}
			if s.stmt == nil && s != b && !seen[s] {
				seen[s] = true
				if walk(s) {
					return true
				}
			}
		}
		return false
	}
	return walk(a)
}

// calls is the test fact: the node evaluates a call to one of the names.
// Going through stmtEvalNode pins the fragment rule too — a compound
// statement's node does not match a call nested in its body.
func calls(names ...string) stmtPred {
	return func(st ast.Stmt) bool {
		return anyCall(stmtEvalNode(st), func(call *ast.CallExpr) bool {
			for _, name := range names {
				if calleeName(call) == name {
					return true
				}
			}
			return false
		})
	}
}

func TestCFGEdges(t *testing.T) {
	cases := []struct {
		construct string
		body      string
		edges     []string // "a->b" must be an edge, "a-/>b" must not be
	}{
		{
			construct: "forward goto skips the statements in between",
			body:      "a(); goto L; b(); L: c()",
			edges:     []string{"a->goto L", "goto L->c", "goto L-/>b", "a-/>b", "c->exit"},
		},
		{
			construct: "backward goto makes a loop",
			body:      "L: a(); if c1 { goto L }; b()",
			edges:     []string{"entry->a", "a->c1", "c1->goto L", "goto L->a", "c1->b"},
		},
		{
			construct: "goto with no such label leaves the function",
			body:      "a(); goto Nowhere; b()",
			edges:     []string{"goto Nowhere->exit", "goto Nowhere-/>b"},
		},
		{
			construct: "labelled break/continue target the outer loop",
			body: `outer:
				for c1 {
					for c2 {
						if c3 { continue outer }
						if c4 { break outer }
						a()
					}
					b()
				}
				d()`,
			edges: []string{
				"continue outer->c1", "continue outer-/>c2",
				"break outer->d", "break outer-/>b",
				"a->c2", "c2->b", "b->c1", "c1->d",
			},
		},
		{
			construct: "unlabelled break inside a switch leaves the switch, not the loop",
			body:      "for c1 { switch t1 { case 1: a(); break; default: b() }; d() }; e()",
			edges:     []string{"break->d", "break-/>e", "d->c1", "c1->e"},
		},
		{
			construct: "switch with fallthrough runs into the next clause",
			body:      "switch t1 { case 1: a(); fallthrough; case 2: b(); default: c() }; d()",
			edges: []string{
				"t1->a", "t1->b", "t1->c", "a->fallthrough", "fallthrough->b", "fallthrough-/>d",
				"b->d", "c->d", "t1-/>d", // a default clause: no clause-skipping edge
			},
		},
		{
			construct: "switch without default may skip every clause",
			body:      "switch t1 { case 1: a() }; d()",
			edges:     []string{"t1->a", "t1->d", "a->d"},
		},
		{
			construct: "select without default always runs a case",
			body:      "select { case <-ch: a(); case ch <- 1: b() }; d()",
			edges:     []string{"select->a", "select->b", "select-/>d", "a->d", "b->d"},
		},
		{
			construct: "empty select blocks forever",
			body:      "a(); select {}; d()",
			edges:     []string{"a->select", "select-/>d", "select-/>exit"},
		},
		{
			construct: "defer is a straight-line node; its closure is another scope",
			body:      "defer func() { if r := recover(); r != nil { h() } }(); a(); panic(x); b()",
			edges:     []string{"entry->defer", "defer->a", "a->panic", "panic->exit", "panic-/>b"},
		},
		{
			construct: "terminal calls (panic, os.Exit) edge to exit",
			body:      "if c1 { os.Exit(1) }; if c2 { log.Fatalf(x) }; a()",
			edges:     []string{"c1->Exit", "Exit->exit", "Exit-/>c2", "Fatalf->exit", "Fatalf-/>a", "c2->a"},
		},
		{
			construct: "for with a post statement: continue goes through the post",
			body:      "for i = 0; c1; inc() { if c2 { continue }; a() }; d()",
			edges:     []string{"continue->inc", "a->inc", "inc->c1", "c1->d", "continue-/>c1"},
		},
		{
			construct: "for without condition or break never falls through",
			body:      "for { a() }; d()",
			edges:     []string{"a->for", "for-/>d"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.construct, func(t *testing.T) {
			g := parseBody(t, tc.body)
			for _, e := range tc.edges {
				from, to, want := "", "", true
				if a, b, ok := strings.Cut(e, "-/>"); ok {
					from, to, want = a, b, false
				} else {
					from, to, _ = strings.Cut(e, "->")
				}
				if got := flowsTo(named(t, g, from), named(t, g, to)); got != want {
					t.Errorf("edge %s: got %v, want %v", e, got, want)
				}
			}
		})
	}
	// The closure of a defer is not part of the enclosing graph.
	g := parseBody(t, "defer func() { h() }(); a()")
	for _, n := range g.nodes {
		if nodeName(g, n) == "h" {
			t.Errorf("defer closure body leaked into the enclosing CFG")
		}
	}
}

func TestPathQueries(t *testing.T) {
	cases := []struct {
		construct  string
		body       string
		from, to   string
		fact       []string
		guaranteed bool // guaranteedOn(from, to, fact); avoidSearch is its negation
	}{
		{"straight line", "a(); charge(); b()", "entry", "exit", []string{"charge"}, true},
		{"if without else skips the fact", "if c1 { charge() }; b()", "entry", "exit", []string{"charge"}, false},
		{"both branches carry the fact", "if c1 { charge() } else { poll() }; b()", "entry", "exit", []string{"charge", "poll"}, true},
		{"a fact in a condition counts at the compound node", "if charge() { a() }", "entry", "exit", []string{"charge"}, true},
		{"early return avoids a later fact", "if c1 { return }; charge()", "entry", "exit", []string{"charge"}, false},
		{"panic path avoids a later fact", "if c1 { panic(x) }; charge()", "entry", "exit", []string{"charge"}, false},
		{"goto jumps over the fact", "if c1 { goto L }; charge(); L: b()", "entry", "b", []string{"charge"}, false},
		{"fallthrough cannot skip the next clause", "switch t1 { case 1: a(); fallthrough; case 2: charge() }; d()", "a", "d", []string{"charge"}, true},
		{"select without default: every case has the fact", "select { case <-ch: charge(); case <-ch2: poll() }; d()", "entry", "d", []string{"charge", "poll"}, true},
		{"select with a bare default", "select { case <-ch: charge(); default: }; d()", "entry", "d", []string{"charge"}, false},
		{"deferred closure counts at the defer node", "defer func() { charge() }(); if c1 { return }; b()", "entry", "exit", []string{"charge"}, true},
		{"zero-trip loop skips a fact in its body", "for c1 { charge() }; b()", "entry", "b", []string{"charge"}, false},
		{"unreachable target is vacuously guaranteed", "return; b()", "entry", "b", []string{"charge"}, true},
		{"from is exclusive", "charge(); b()", "charge", "b", []string{"charge"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.construct, func(t *testing.T) {
			g := parseBody(t, tc.body)
			from, to := named(t, g, tc.from), named(t, g, tc.to)
			if got := guaranteedOn(from, to, calls(tc.fact...)); got != tc.guaranteed {
				t.Errorf("guaranteedOn(%s, %s, %v) = %v, want %v", tc.from, tc.to, tc.fact, got, tc.guaranteed)
			}
			if got := avoidSearch(from, map[*cnode]bool{to: true}, calls(tc.fact...)); got == tc.guaranteed {
				t.Errorf("avoidSearch(%s, %s, %v) = %v, want %v", tc.from, tc.to, tc.fact, got, !tc.guaranteed)
			}
		})
	}

	// A goal is tested before the avoid predicate: reaching it wins even
	// when it also matches.
	g := parseBody(t, "a(); charge()")
	if !avoidSearch(g.entry, map[*cnode]bool{named(t, g, "charge"): true}, calls("charge")) {
		t.Errorf("avoidSearch: a goal node matching avoid must still be reached")
	}
}

func TestIterationCompletes(t *testing.T) {
	cases := []struct {
		construct string
		body      string
		loop      string   // name of the loop head under test
		mustPass  []string // nil: any completing path
		fact      []string
		completes bool
	}{
		{"every trip passes the fact", "for c1 { a(); charge() }", "c1", nil, []string{"charge"}, false},
		{"continue fast path skips the fact", "for c1 { pull(); if c2 { continue }; charge() }", "c1", []string{"pull"}, []string{"charge"}, true},
		{"fact before the fast path", "for c1 { pull(); charge(); if c2 { continue }; b() }", "c1", []string{"pull"}, []string{"charge"}, false},
		{"mustPass not on the uncharged path", "for c1 { if c2 { continue }; pull(); charge() }", "c1", []string{"pull"}, []string{"charge"}, false},
		{"break is not a completed iteration", "for c1 { if c2 { break }; charge() }", "c1", nil, []string{"charge"}, false},
		{"return is not a completed iteration", "for c1 { if c2 { return }; charge() }", "c1", nil, []string{"charge"}, false},
		{"range loop", "for range r1 { if c2 { continue }; charge() }", "r1", nil, []string{"charge"}, true},
		{"post statement carries the fact", "for i = 0; c1; charge() { if c2 { continue }; a() }", "c1", nil, []string{"charge"}, false},
		{"outer trip around a zero-trip inner loop", "for c1 { for c2 { charge() } }", "c1", nil, []string{"charge"}, true},
		{"inner loop: continue fast path", "for c1 { for c2 { if c3 { continue }; charge() } }", "c2", nil, []string{"charge"}, true},
		{"inner loop: break leaves it, outer still charged after", "for c1 { for c2 { if c3 { break }; charge() }; charge() }", "c2", nil, []string{"charge"}, false},
		{"outer loop charged after the inner one", "for c1 { for c2 { if c3 { break }; a() }; charge() }", "c1", nil, []string{"charge"}, false},
		{"labelled continue skips the outer loop's tail", "outer: for c1 { for c2 { if c3 { continue outer }; a() }; charge() }", "c1", nil, []string{"charge"}, true},
		{"switch in the body: one clause without the fact", "for c1 { switch t1 { case 1: charge(); default: a() } }", "c1", nil, []string{"charge"}, true},
		{"select in the body: every case has the fact", "for c1 { select { case <-ch: charge(); case <-ch2: poll() } }", "c1", nil, []string{"charge", "poll"}, false},
	}
	for _, tc := range cases {
		t.Run(tc.construct, func(t *testing.T) {
			g := parseBody(t, tc.body)
			var mustPass stmtPred
			if tc.mustPass != nil {
				mustPass = calls(tc.mustPass...)
			}
			if got := iterationCompletes(g, named(t, g, tc.loop).stmt, mustPass, calls(tc.fact...)); got != tc.completes {
				t.Errorf("iterationCompletes = %v, want %v", got, tc.completes)
			}
		})
	}
}

// TestLoopAnchors pins the batch-granularity argument chargepath and
// cancelpoll share: a fact guaranteed on every path from an enclosing loop
// head (or the scope entry) to an inner loop covers that loop once per
// enclosing iteration.
func TestLoopAnchors(t *testing.T) {
	body, g := parseFunc(t, `
		setup()
		for c1 {
			poll()
			for c2 {
				for c3 { a() }
			}
			for c4 { b() }
		}
		for c5 { d() }`)
	loops := scopeLoops(body)
	names := func(anchors []*cnode) string {
		var out []string
		for _, a := range anchors {
			out = append(out, nodeName(g, a))
		}
		return strings.Join(out, ",")
	}
	for loop, want := range map[string]string{"c1": "entry", "c2": "c1,entry", "c3": "c2,c1,entry", "c4": "c1,entry", "c5": "entry"} {
		if got := names(loopAnchors(g, loops, named(t, g, loop).stmt)); got != want {
			t.Errorf("loopAnchors(%s) = %s, want %s", loop, got, want)
		}
	}
	for loop, want := range map[string]bool{"c1": false, "c2": true, "c3": true, "c4": true, "c5": false} {
		head := named(t, g, loop)
		if got := guaranteedFromAny(loopAnchors(g, loops, head.stmt), head, calls("poll")); got != want {
			t.Errorf("poll guaranteed ahead of %s = %v, want %v", loop, got, want)
		}
	}
	// c3 is covered from c1 (through c2), not from its innermost anchor.
	if guaranteedOn(named(t, g, "c2"), named(t, g, "c3"), calls("poll")) {
		t.Errorf("poll is not on the path from c2 to c3")
	}
}
