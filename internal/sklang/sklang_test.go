package sklang

import (
	"reflect"
	"strings"
	"testing"
)

// testCatalog is a plausible small-terrain catalog for planner tests.
var testCatalog = Catalog{Objects: 30, Faces: 450, Area: 1500 * 1500}

func TestParseCanonical(t *testing.T) {
	// input → canonical spelling (and the canonical spelling must be a
	// fixed point of parse ∘ String).
	cases := []struct{ in, want string }{
		{"SELECT k=5 NEAREST (800, 800)", "SELECT k=5 NEAREST (800, 800)"},
		{"select K=5 nearest(800,800)", "SELECT k=5 NEAREST (800, 800)"},
		{"SELECT k=5 NEAREST (800, 800) WITHIN 2000 USING s=2 ACCURACY 0.1",
			"SELECT k=5 NEAREST (800, 800) WITHIN 2000 USING s=2 ACCURACY 0.1"},
		{"SELECT k=5 NEAREST (800, 800) ACCURACY 0.10", "SELECT k=5 NEAREST (800, 800) ACCURACY 0.1"},
		{"SELECT (800, 800) WITHIN 500", "SELECT (800, 800) WITHIN 500"},
		{"range (1.5e2, -3.25) within 500 using s=3, io=off",
			"RANGE (150, -3.25) WITHIN 500 USING s=3, io=off"},
		{"DISTANCE (0, 0) TO (100, 100)", "DISTANCE (0, 0) TO (100, 100)"},
		{"distance (0,0) to (100,100) using s=2 accuracy 0.95",
			"DISTANCE (0, 0) TO (100, 100) USING s=2 ACCURACY 0.95"},
		{"SUBSCRIBE k=3 FOLLOW (800, 800)", "SUBSCRIBE k=3 FOLLOW (800, 800)"},
		{"subscribe k=3 follow (800, 800) using Dummy_LB=ON",
			"SUBSCRIBE k=3 FOLLOW (800, 800) USING dummy_lb=on"},
		{"EXPLAIN SELECT k=2 NEAREST (10, 20)", "EXPLAIN SELECT k=2 NEAREST (10, 20)"},
	}
	for _, c := range cases {
		st, err := Parse(c.in)
		if err != nil {
			t.Errorf("Parse(%q): %v", c.in, err)
			continue
		}
		if got := st.String(); got != c.want {
			t.Errorf("Parse(%q).String() = %q, want %q", c.in, got, c.want)
		}
		// Canonical fixed point: re-parsing the canonical spelling yields an
		// equal AST (modulo positions).
		st2, err := Parse(c.want)
		if err != nil {
			t.Errorf("Parse(canonical %q): %v", c.want, err)
			continue
		}
		if !reflect.DeepEqual(StripPositions(st), StripPositions(st2)) {
			t.Errorf("round trip of %q: ASTs differ:\n%#v\n%#v", c.in, st, st2)
		}
	}
}

func TestParseErrors(t *testing.T) {
	cases := []struct {
		in        string
		line, col int
		wantMsg   string
	}{
		{"", 1, 1, "unexpected end of query"},
		{"SELEC k=5", 1, 1, "expected SELECT"},
		{"SELECT k=5 NEAREST (800, 800) WHITHIN 12", 1, 31, `unexpected "WHITHIN"`},
		{"SELECT k=0 NEAREST (1, 2)", 1, 10, "k must be a positive integer"},
		{"SELECT k=2.5 NEAREST (1, 2)", 1, 10, "k must be a positive integer"},
		{"SELECT k=5 NEAREST (800 800)", 1, 25, `","`},
		{"SELECT (1, 2)", 1, 14, "WITHIN"},
		{"RANGE (1, 2) WITHIN", 1, 20, "a distance after WITHIN"},
		{"DISTANCE (1, 2) (3, 4)", 1, 17, "TO"},
		{"SUBSCRIBE k=5 NEAREST (1, 2)", 1, 15, "FOLLOW"},
		{"EXPLAIN EXPLAIN SELECT k=1 NEAREST (1, 2)", 1, 9, "EXPLAIN does not nest"},
		{"SELECT k=5 NEAREST (1, 2) extra", 1, 27, "end of query"},
		{"SELECT k=5 NEAREST (1, 2) USING zoom=4", 1, 33, ""}, // parses; plan rejects
		{"SELECT k=5 NEAREST (1e999, 2)", 1, 21, "out of range"},
		{"SELECT k=5 NEAREST (1, 2) @", 1, 27, "unexpected character"},
	}
	for _, c := range cases {
		_, err := Parse(c.in)
		if c.wantMsg == "" {
			if err != nil {
				t.Errorf("Parse(%q): unexpected error %v", c.in, err)
			}
			continue
		}
		le, ok := err.(*Error)
		if !ok {
			t.Errorf("Parse(%q): err = %v, want *Error", c.in, err)
			continue
		}
		if le.Pos.Line != c.line || le.Pos.Col != c.col {
			t.Errorf("Parse(%q): error at %d:%d, want %d:%d (%v)", c.in, le.Pos.Line, le.Pos.Col, c.line, c.col, le)
		}
		if !strings.Contains(le.Msg, c.wantMsg) {
			t.Errorf("Parse(%q): msg %q does not contain %q", c.in, le.Msg, c.wantMsg)
		}
	}
}

func TestCaret(t *testing.T) {
	src := "SELECT k=5 NEAREST (800, 800) WHITHIN 12"
	_, err := Parse(src)
	le := err.(*Error)
	got := Caret(src, le.Pos)
	want := "  " + src + "\n  " + strings.Repeat(" ", 30) + "^"
	if got != want {
		t.Errorf("Caret:\n%s\nwant:\n%s", got, want)
	}
}

// TestPlanGolden pins the planner's decision table: query string → chosen
// algorithm, pushed-down predicates, plan-tree shape.
func TestPlanGolden(t *testing.T) {
	type want struct {
		algo     Algorithm
		form     string
		sched    int
		children []string
	}
	cases := []struct {
		in string
		w  want
	}{
		{"SELECT k=5 NEAREST (800, 800)",
			want{AlgoMR3, "select", 1, []string{"phase:knn2d", "phase:rank-c1", "phase:range2d", "phase:rank-c2"}}},
		{"SELECT k=5 NEAREST (800, 800) ACCURACY 1",
			want{AlgoEA, "select", 1, []string{"phase:knn2d", "phase:rank-c1", "phase:range2d", "phase:rank-c2"}}},
		{"SELECT k=5 NEAREST (800, 800) WITHIN 2000 USING s=2 ACCURACY 0.1",
			want{AlgoMR3, "select", 2, []string{"phase:knn2d", "phase:rank-c1", "phase:range2d", "phase:rank-c2", "filter"}}},
		{"SELECT (800, 800) WITHIN 500",
			want{AlgoRange, "range", 1, []string{"phase:range2d", "phase:refine", "phase:settle"}}},
		{"RANGE (800, 800) WITHIN 500 USING s=3",
			want{AlgoRange, "range", 3, []string{"phase:range2d", "phase:refine", "phase:settle"}}},
		{"DISTANCE (0, 0) TO (100, 100) ACCURACY 0.95",
			want{AlgoDistance, "distance", 1, []string{"phase:refine"}}},
		{"SUBSCRIBE k=3 FOLLOW (800, 800) USING s=2",
			want{AlgoContinuous, "subscribe", 2, []string{"mr3"}}},
	}
	for _, c := range cases {
		p, err := Compile(c.in, testCatalog)
		if err != nil {
			t.Errorf("Compile(%q): %v", c.in, err)
			continue
		}
		if p.Algo != c.w.algo || p.Form != c.w.form || p.Sched != c.w.sched {
			t.Errorf("Compile(%q): algo/form/sched = %s/%s/%d, want %s/%s/%d",
				c.in, p.Algo, p.Form, p.Sched, c.w.algo, c.w.form, c.w.sched)
		}
		if p.Root == nil || p.Root.Op != string(c.w.algo) {
			t.Errorf("Compile(%q): root = %+v, want op %s", c.in, p.Root, c.w.algo)
			continue
		}
		var ops []string
		for _, ch := range p.Root.Children {
			ops = append(ops, ch.Op)
		}
		if !reflect.DeepEqual(ops, c.w.children) {
			t.Errorf("Compile(%q): children %v, want %v", c.in, ops, c.w.children)
		}
		// Every phase leaf carries a positive estimate (filter is free).
		for _, ch := range p.Root.Children {
			if strings.HasPrefix(ch.Op, "phase:") && ch.EstPages < 1 {
				t.Errorf("Compile(%q): child %s has estimate %d, want ≥ 1", c.in, ch.Op, ch.EstPages)
			}
		}
	}
}

// TestPlanPushdown pins the predicate push-down: ACCURACY a<1 becomes
// Step2Accuracy, USING knobs land on api.Options, WITHIN on a k-NN query
// becomes a filter.
func TestPlanPushdown(t *testing.T) {
	p, err := Compile("SELECT k=5 NEAREST (800, 800) WITHIN 2000 USING s=2, io=off, dummy_lb=on ACCURACY 0.1", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if p.K != 5 || p.X != 800 || p.Y != 800 || p.Sched != 2 {
		t.Errorf("plan scalars: %+v", p)
	}
	if !p.HasFilter || p.Radius != 2000 {
		t.Errorf("filter not pushed: HasFilter=%v Radius=%g", p.HasFilter, p.Radius)
	}
	o := p.Options
	if o == nil || o.Step2Accuracy == nil || *o.Step2Accuracy != 0.1 {
		t.Errorf("Step2Accuracy not pushed: %+v", o)
	}
	if o.IOIntegration == nil || *o.IOIntegration != false {
		t.Errorf("IOIntegration not pushed: %+v", o)
	}
	if o.DummyLB == nil || *o.DummyLB != true {
		t.Errorf("DummyLB not pushed: %+v", o)
	}

	d, err := Compile("DISTANCE (0, 0) TO (100, 100)", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	if d.Accuracy != 0.9 {
		t.Errorf("distance default accuracy = %g, want 0.9", d.Accuracy)
	}
}

func TestPlanErrors(t *testing.T) {
	cases := []struct{ in, wantMsg string }{
		{"SELECT k=5 NEAREST (1, 2) USING zoom=4", "unknown option"},
		{"SELECT k=5 NEAREST (1, 2) USING both_lb=on", "unknown option"},
		{"SELECT k=5 NEAREST (1, 2) USING s=4", "s must be 1, 2 or 3"},
		{"SELECT k=5 NEAREST (1, 2) USING s=2, s=3", "duplicate option"},
		{"SELECT k=5 NEAREST (1, 2) USING io=maybe", "io must be on, off"},
		{"SELECT k=5 NEAREST (1, 2) ACCURACY 1.5", "ACCURACY must be in (0, 1]"},
		{"SELECT k=5 NEAREST (1, 2) ACCURACY -1", "ACCURACY must be in (0, 1]"},
		{"SELECT k=5 NEAREST (1, 2) USING s=2 ACCURACY 1", "takes no USING options"},
		{"SELECT k=5 NEAREST (1, 2) USING step2=0.5 ACCURACY 0.2", "conflicts"},
		{"SELECT (1, 2) WITHIN 0", "must be positive"},
		{"RANGE (1, 2) WITHIN -5", "must be positive"},
		{"DISTANCE (1, 2) TO (3, 4) USING io=on", "does not apply"},
		{"DISTANCE (1, 2) TO (3, 4) ACCURACY 0", "ACCURACY must be in (0, 1]"},
	}
	for _, c := range cases {
		_, err := Compile(c.in, testCatalog)
		if err == nil {
			t.Errorf("Compile(%q): no error, want %q", c.in, c.wantMsg)
			continue
		}
		le, ok := err.(*Error)
		if !ok {
			t.Errorf("Compile(%q): err = %T, want *Error", c.in, err)
			continue
		}
		if !strings.Contains(le.Msg, c.wantMsg) {
			t.Errorf("Compile(%q): msg %q does not contain %q", c.in, le.Msg, c.wantMsg)
		}
		if le.Pos.Line == 0 {
			t.Errorf("Compile(%q): plan error has no position: %v", c.in, le)
		}
	}
}

func TestRenderNode(t *testing.T) {
	p, err := Compile("SELECT k=3 NEAREST (800, 800)", testCatalog)
	if err != nil {
		t.Fatal(err)
	}
	text := RenderNode(p.Root.Wire())
	lines := strings.Split(strings.TrimRight(text, "\n"), "\n")
	if len(lines) != 5 {
		t.Fatalf("RenderNode: %d lines, want 5:\n%s", len(lines), text)
	}
	if !strings.HasPrefix(lines[0], "mr3 ") {
		t.Errorf("root line %q does not name the algorithm", lines[0])
	}
	for _, l := range lines[1:] {
		if !strings.HasPrefix(l, "  phase:") {
			t.Errorf("child line %q not indented under the root", l)
		}
	}
}
