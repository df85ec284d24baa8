package loop

import (
	"testing"

	"repro/internal/vec"
)

// l1Nest builds loop (L1) from Example 1 of the paper:
//
//	for i = 0 to 3 { for j = 0 to 3 {
//	  S1: A[i+1,j+1] := A[i+1,j] + B[i,j];
//	  S2: B[i+1,j]   := A[i,j]*2 + C;
//	}}
func l1Nest() *Nest {
	n := NewRect("L1", []int64{0, 0}, []int64{3, 3})
	n.Stmts = []Stmt{
		{
			Label:  "S1",
			Writes: []Access{{Var: "A", Offset: vec.NewInt(1, 1)}},
			Reads:  []Access{{Var: "A", Offset: vec.NewInt(1, 0)}, {Var: "B", Offset: vec.NewInt(0, 0)}},
			Ops:    1,
		},
		{
			Label:  "S2",
			Writes: []Access{{Var: "B", Offset: vec.NewInt(1, 0)}},
			Reads:  []Access{{Var: "A", Offset: vec.NewInt(0, 0)}},
			Ops:    1,
		},
	}
	return n
}

func TestL1Dependences(t *testing.T) {
	// The paper derives D = {(0,1), (1,1), (1,0)} for loop L1.
	deps := l1Nest().Dependences()
	want := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0), vec.NewInt(1, 1)}
	if len(deps) != len(want) {
		t.Fatalf("got %d deps %v, want %d", len(deps), deps, len(want))
	}
	for i := range want {
		if !deps[i].Equal(want[i]) {
			t.Errorf("dep[%d] = %v, want %v", i, deps[i], want[i])
		}
	}
}

func TestL1DependenceProvenance(t *testing.T) {
	infos := l1Nest().DependenceDetails()
	// Expect: A from S1 to S1 (0,1); A from S1 to S2 (1,1); B from S2 to S1 (1,0).
	type key struct{ v, varname, from, to string }
	got := map[key]bool{}
	for _, in := range infos {
		got[key{in.Vector.Key(), in.Var, in.FromStmt, in.ToStmt}] = true
	}
	wants := []key{
		{"0,1", "A", "S1", "S1"},
		{"1,1", "A", "S1", "S2"},
		{"1,0", "B", "S2", "S1"},
	}
	for _, w := range wants {
		if !got[w] {
			t.Errorf("missing dependence %+v (have %v)", w, infos)
		}
	}
	if len(infos) != len(wants) {
		t.Errorf("got %d dependences, want %d: %v", len(infos), len(wants), infos)
	}
}

func TestMatVecDependences(t *testing.T) {
	// Loop L5 (rewritten matvec): x carries (1,0), y carries (0,1).
	n := NewRect("L5", []int64{1, 1}, []int64{4, 4})
	n.Stmts = []Stmt{
		{
			Label:  "x-pipe",
			Writes: []Access{{Var: "x", Offset: vec.NewInt(0, 0)}},
			Reads:  []Access{{Var: "x", Offset: vec.NewInt(-1, 0)}},
		},
		{
			Label:  "y-acc",
			Writes: []Access{{Var: "y", Offset: vec.NewInt(0, 0)}},
			Reads:  []Access{{Var: "y", Offset: vec.NewInt(0, -1)}, {Var: "x", Offset: vec.NewInt(0, 0)}},
			Ops:    2,
		},
	}
	deps := n.Dependences()
	want := []vec.Int{vec.NewInt(0, 1), vec.NewInt(1, 0)}
	if len(deps) != 2 || !deps[0].Equal(want[0]) || !deps[1].Equal(want[1]) {
		t.Fatalf("deps = %v, want %v", deps, want)
	}
	if n.OpsPerIteration() != 3 {
		t.Errorf("OpsPerIteration = %d", n.OpsPerIteration())
	}
}

func TestRectEnumeration(t *testing.T) {
	n := NewRect("r", []int64{0, 1}, []int64{1, 2})
	pts := n.Points()
	want := []vec.Int{
		vec.NewInt(0, 1), vec.NewInt(0, 2), vec.NewInt(1, 1), vec.NewInt(1, 2),
	}
	if len(pts) != len(want) {
		t.Fatalf("points = %v", pts)
	}
	for i := range want {
		if !pts[i].Equal(want[i]) {
			t.Errorf("pts[%d] = %v, want %v", i, pts[i], want[i])
		}
	}
	if n.Size() != 4 {
		t.Errorf("Size = %d", n.Size())
	}
}

func TestTriangularBounds(t *testing.T) {
	// for i = 0..3; for j = 0..i  — triangular set of 10 points.
	n := &Nest{
		Name:  "tri",
		Dims:  2,
		Lower: []Affine{Const(0), Const(0)},
		Upper: []Affine{Const(3), {Const: 0, Coeffs: []int64{1, 0}}},
	}
	if err := n.Validate(); err != nil {
		t.Fatal(err)
	}
	if n.Size() != 10 {
		t.Fatalf("Size = %d, want 10", n.Size())
	}
	if !n.Contains(vec.NewInt(3, 3)) || n.Contains(vec.NewInt(2, 3)) {
		t.Error("Contains wrong for triangular set")
	}
}

func TestValidateRejectsInnerReference(t *testing.T) {
	n := &Nest{
		Name:  "bad",
		Dims:  2,
		Lower: []Affine{{Const: 0, Coeffs: []int64{0, 1}}, Const(0)},
		Upper: []Affine{Const(3), Const(3)},
	}
	if err := n.Validate(); err == nil {
		t.Fatal("bound referencing inner index must be rejected")
	}
}

func TestValidateRejectsBadAccess(t *testing.T) {
	n := NewRect("bad", []int64{0}, []int64{3})
	n.Stmts = []Stmt{{Label: "s", Writes: []Access{{Var: "A", Offset: vec.NewInt(0, 0)}}}}
	if err := n.Validate(); err == nil {
		t.Fatal("access arity mismatch must be rejected")
	}
}

func TestValidateRejectsZeroDims(t *testing.T) {
	n := &Nest{Name: "empty", Dims: 0}
	if err := n.Validate(); err == nil {
		t.Fatal("zero-depth nest must be rejected")
	}
}

func TestEmptyRange(t *testing.T) {
	n := NewRect("empty", []int64{3}, []int64{2})
	if n.Size() != 0 {
		t.Fatalf("Size = %d, want 0", n.Size())
	}
}

func TestStructureL1(t *testing.T) {
	s, err := NewStructure(l1Nest())
	if err != nil {
		t.Fatal(err)
	}
	if len(s.V) != 16 {
		t.Fatalf("|V| = %d, want 16", len(s.V))
	}
	if len(s.D) != 3 {
		t.Fatalf("|D| = %d, want 3", len(s.D))
	}
	// The paper counts 33 data dependencies for loop L1 (Fig. 3 discussion):
	// 12 along (0,1), 9 along (1,1), 12 along (1,0).
	if got := s.EdgeCount(); got != 33 {
		t.Fatalf("EdgeCount = %d, want 33", got)
	}
}

func TestStructureEdgeEndpointsInside(t *testing.T) {
	s, err := NewStructure(l1Nest())
	if err != nil {
		t.Fatal(err)
	}
	s.ForEachEdge(func(e Edge) {
		if !s.HasVertex(e.From) || !s.HasVertex(e.To) {
			t.Fatalf("edge %v -> %v leaves the index set", e.From, e.To)
		}
		if !e.To.Sub(e.From).Equal(s.D[e.Dep]) {
			t.Fatalf("edge %v -> %v does not match dep %v", e.From, e.To, s.D[e.Dep])
		}
	})
}

func TestStructureExplicitDeps(t *testing.T) {
	n := NewRect("mm", []int64{0, 0, 0}, []int64{3, 3, 3})
	s, err := NewStructure(n, vec.NewInt(0, 1, 0), vec.NewInt(1, 0, 0), vec.NewInt(0, 0, 1))
	if err != nil {
		t.Fatal(err)
	}
	if len(s.V) != 64 || len(s.D) != 3 {
		t.Fatalf("|V|=%d |D|=%d", len(s.V), len(s.D))
	}
	// 3 * 48 = 144 edges (each dep valid on a 4x4x3 sub-box).
	if got := s.EdgeCount(); got != 144 {
		t.Fatalf("EdgeCount = %d, want 144", got)
	}
}

func TestStructureRejectsZeroDep(t *testing.T) {
	n := NewRect("z", []int64{0}, []int64{1})
	if _, err := NewStructure(n, vec.NewInt(0)); err == nil {
		t.Fatal("zero dependence vector must be rejected")
	}
}

func TestStructureRejectsArityMismatch(t *testing.T) {
	n := NewRect("z", []int64{0}, []int64{1})
	if _, err := NewStructure(n, vec.NewInt(1, 0)); err == nil {
		t.Fatal("dependence arity mismatch must be rejected")
	}
}

func TestVertexIndex(t *testing.T) {
	s, err := NewStructure(l1Nest())
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range s.V {
		if s.VertexIndex(p) != i {
			t.Fatalf("VertexIndex(%v) = %d, want %d", p, s.VertexIndex(p), i)
		}
	}
	if s.VertexIndex(vec.NewInt(9, 9)) != -1 {
		t.Error("VertexIndex of outside point should be -1")
	}
}

func TestVertexIndexNonRectangular(t *testing.T) {
	// Triangular bounds force the map-based index path.
	n := &Nest{
		Name:  "tri",
		Dims:  2,
		Lower: []Affine{Const(0), Const(0)},
		Upper: []Affine{Const(3), {Const: 0, Coeffs: []int64{1, 0}}},
	}
	st, err := NewStructure(n, vec.NewInt(0, 1))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range st.V {
		if st.VertexIndex(p) != i {
			t.Fatalf("VertexIndex(%v) = %d, want %d", p, st.VertexIndex(p), i)
		}
	}
	if st.VertexIndex(vec.NewInt(1, 3)) != -1 {
		t.Fatal("outside point should be -1")
	}
	if st.VertexIndex(vec.NewInt(1)) != -1 {
		t.Fatal("arity mismatch should be -1")
	}
	if st.Dim() != 2 {
		t.Fatalf("Dim = %d", st.Dim())
	}
}

func TestVertexIndexRectangularBounds(t *testing.T) {
	// The arithmetic indexer must reject every out-of-box probe and agree
	// with enumeration on every inside point.
	n := NewRect("box", []int64{-1, 2}, []int64{2, 4})
	st, err := NewStructure(n, vec.NewInt(1, 0))
	if err != nil {
		t.Fatal(err)
	}
	for i, p := range st.V {
		if st.VertexIndex(p) != i {
			t.Fatalf("VertexIndex(%v) = %d, want %d", p, st.VertexIndex(p), i)
		}
	}
	for _, out := range []vec.Int{
		vec.NewInt(-2, 3), vec.NewInt(3, 3), vec.NewInt(0, 1), vec.NewInt(0, 5),
	} {
		if st.VertexIndex(out) != -1 {
			t.Fatalf("VertexIndex(%v) should be -1", out)
		}
	}
}

func TestOpsPerIterationDefaults(t *testing.T) {
	n := NewRect("d", []int64{0}, []int64{1})
	// No statements at all: defaults to 1.
	if n.OpsPerIteration() != 1 {
		t.Fatalf("OpsPerIteration = %d", n.OpsPerIteration())
	}
	n.Stmts = []Stmt{{Label: "s"}} // zero Ops counts as 1
	if n.OpsPerIteration() != 1 {
		t.Fatalf("OpsPerIteration = %d", n.OpsPerIteration())
	}
}

func TestContainsArityMismatch(t *testing.T) {
	n := NewRect("c", []int64{0, 0}, []int64{1, 1})
	if n.Contains(vec.NewInt(0)) {
		t.Fatal("wrong arity should not be contained")
	}
}

func TestAffineString(t *testing.T) {
	a := Affine{Const: 2, Coeffs: []int64{0, -1}}
	if a.String() != "2-1*I2" {
		t.Errorf("String = %q", a.String())
	}
	if !Const(5).IsConst() || a.IsConst() {
		t.Error("IsConst wrong")
	}
}

// TestVertexAppendDoesNotAlias: vertices share one coordinate buffer, so
// each V[i] must be capped at its own length — appending to one vertex
// reallocates instead of overwriting the next.
func TestVertexAppendDoesNotAlias(t *testing.T) {
	for _, n := range []*Nest{
		NewRect("rect", []int64{0, 0}, []int64{3, 4}),
		{Name: "tri", Dims: 2, Lower: []Affine{Const(0), Const(0)},
			Upper: []Affine{Const(4), {Const: 0, Coeffs: []int64{1, 0}}}},
	} {
		st, err := NewStructure(n, vec.NewInt(0, 1))
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i+1 < len(st.V); i++ {
			next := st.V[i+1].Clone()
			grown := append(st.V[i], 99, 99)
			grown[0] = -7
			if !st.V[i+1].Equal(next) {
				t.Fatalf("%s: append to V[%d] overwrote V[%d]: %v", n.Name, i, i+1, st.V[i+1])
			}
			if st.V[i][0] == -7 {
				t.Fatalf("%s: append to V[%d] wrote through to it", n.Name, i)
			}
		}
	}
}
