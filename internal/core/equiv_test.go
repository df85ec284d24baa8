package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"repro/internal/kernels"
	"repro/internal/loop"
	"repro/internal/project"
	"repro/internal/vec"
)

// refTIG is the map-based TIG construction BuildTIG replaced: one pass
// over every dependence arc, weights accumulated in nested maps keyed by
// source block, target block and dependence.
type refTIG struct {
	loads []int64
	edges []TIGEdge
	byDep map[int]map[int]map[int]int64
	arcs  int
}

func buildRefTIG(p *Partitioning) *refTIG {
	r := &refTIG{loads: make([]int64, len(p.Groups)), byDep: map[int]map[int]map[int]int64{}}
	for g := range p.Groups {
		r.loads[g] = int64(p.BlockSize(g))
	}
	p.PS.Orig.ForEachEdgeIdx(func(ui, vi, dep int) {
		r.arcs++
		gu, gv := p.BlockOf[ui], p.BlockOf[vi]
		if gu == gv {
			return
		}
		if r.byDep[gu] == nil {
			r.byDep[gu] = map[int]map[int]int64{}
		}
		if r.byDep[gu][gv] == nil {
			r.byDep[gu][gv] = map[int]int64{}
		}
		r.byDep[gu][gv][dep]++
	})
	for u, mu := range r.byDep {
		for v, mv := range mu {
			var w int64
			for _, x := range mv {
				w += x
			}
			r.edges = append(r.edges, TIGEdge{From: u, To: v, Weight: w})
		}
	}
	sort.Slice(r.edges, func(i, j int) bool {
		if r.edges[i].From != r.edges[j].From {
			return r.edges[i].From < r.edges[j].From
		}
		return r.edges[i].To < r.edges[j].To
	})
	return r
}

// refLemma1 is the map-based Lemma 1 check CheckInvariants replaced: a
// set of occupied steps per block, filled in vertex order.
func refLemma1(p *Partitioning) error {
	times := map[int]map[int64]bool{}
	for vi, x := range p.PS.Orig.V {
		g := p.BlockOf[vi]
		if g < 0 || g >= len(p.Groups) {
			return fmt.Errorf("vertex %v has invalid block %d", x, g)
		}
		if p.MergeFactor > 1 {
			continue
		}
		t := p.PS.Pi.Dot(x)
		if times[g] == nil {
			times[g] = map[int64]bool{}
		}
		if times[g][t] {
			return fmt.Errorf("block %d executes two index points at step %d", g, t)
		}
		times[g][t] = true
	}
	return nil
}

// assertTIGMatchesRef compares every TIG accessor against the reference.
func assertTIGMatchesRef(t *testing.T, label string, p *Partitioning) {
	t.Helper()
	tig, ref := BuildTIG(p), buildRefTIG(p)
	if !reflect.DeepEqual(tig.Loads, ref.loads) {
		t.Fatalf("%s: Loads differ: %v vs %v", label, tig.Loads, ref.loads)
	}
	if len(tig.Edges) != len(ref.edges) || (len(ref.edges) > 0 && !reflect.DeepEqual(tig.Edges, ref.edges)) {
		t.Fatalf("%s: Edges differ", label)
	}
	if es := p.EdgeStats(); tig.Arcs != es.Total || tig.Arcs != ref.arcs || tig.TotalTraffic() != int64(es.InterBlock) {
		t.Fatalf("%s: Arcs = %d, traffic %d; EdgeStats = %+v", label, tig.Arcs, tig.TotalTraffic(), es)
	}
	m := len(p.PS.Orig.D)
	for _, e := range ref.edges {
		if w := tig.Weight(e.From, e.To); w != e.Weight {
			t.Fatalf("%s: Weight(%d,%d) = %d, want %d", label, e.From, e.To, w, e.Weight)
		}
		want := ref.byDep[e.From][e.To]
		if got := tig.DepBreakdown(e.From, e.To); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: DepBreakdown(%d,%d) = %v, want %v", label, e.From, e.To, got, want)
		}
		for dep := -1; dep <= m; dep++ {
			if got := tig.WeightByDep(e.From, e.To, dep); got != want[dep] {
				t.Fatalf("%s: WeightByDep(%d,%d,%d) = %d, want %d", label, e.From, e.To, dep, got, want[dep])
			}
		}
	}
	for u := -1; u <= tig.N; u++ {
		var want []int
		for v := range ref.byDep[u] {
			want = append(want, v)
		}
		sort.Ints(want)
		if got := tig.Successors(u); !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Successors(%d) = %v, want %v", label, u, got, want)
		}
		if tig.OutDegree(u) != len(want) {
			t.Fatalf("%s: OutDegree(%d) = %d, want %d", label, u, tig.OutDegree(u), len(want))
		}
		if tig.DepBreakdown(u, u) != nil || tig.Weight(u, u) != 0 {
			t.Fatalf("%s: self traffic on block %d", label, u)
		}
	}
}

// TestTIGAndLemma1MatchMapReference: on every built-in kernel across
// sizes, merge factors 1–3 and auxiliary vectors on and off, plus a
// lexicographically negative Π, the CSR TIG answers every accessor exactly
// as the map-based construction did, and the flat Lemma 1 check accepts
// what the map-based check accepts and rejects at least what it rejects.
func TestTIGAndLemma1MatchMapReference(t *testing.T) {
	type input struct {
		label string
		st    *loop.Structure
		pi    vec.Int
	}
	var inputs []input
	for _, name := range kernels.Names() {
		for _, size := range []int64{1, 2, 3, 5, 8, 12} {
			k, err := kernels.Lookup(name, size)
			if err != nil {
				t.Fatal(err)
			}
			st, err := k.Structure()
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{fmt.Sprintf("%s/%d", name, size), st, k.Pi})
		}
	}
	for _, size := range []int64{1, 4, 9} {
		st, err := loop.NewStructure(loop.NewRect("neg", []int64{0, 0}, []int64{size, size + 2}),
			vec.NewInt(0, 1), vec.NewInt(1, 1))
		if err != nil {
			t.Fatal(err)
		}
		inputs = append(inputs, input{fmt.Sprintf("neg/%d", size), st, vec.NewInt(-1, 2)})
	}

	rng := rand.New(rand.NewSource(11))
	for _, in := range inputs {
		ps, err := project.Project(in.st, in.pi)
		if err != nil {
			t.Fatalf("%s: %v", in.label, err)
		}
		for merge := int64(1); merge <= 3; merge++ {
			for _, noAux := range []bool{false, true} {
				label := fmt.Sprintf("%s/merge=%d/noaux=%v", in.label, merge, noAux)
				p, err := Partition(ps, Options{MergeFactor: merge, NoAux: noAux})
				if err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := CheckInvariants(p); err != nil {
					t.Fatalf("%s: %v", label, err)
				}
				if err := refLemma1(p); err != nil {
					t.Fatalf("%s: reference rejects: %v", label, err)
				}
				assertTIGMatchesRef(t, label, p)

				// Move one vertex to another block: whatever the map-based
				// check rejects, the flat check rejects too.
				if len(p.Groups) > 1 {
					vi := rng.Intn(len(p.BlockOf))
					saved := p.BlockOf[vi]
					p.BlockOf[vi] = (saved + 1 + rng.Intn(len(p.Groups)-1)) % len(p.Groups)
					if refLemma1(p) != nil && CheckInvariants(p) == nil {
						t.Fatalf("%s: flat check accepts what the map-based check rejects", label)
					}
					if CheckInvariants(p) == nil {
						t.Fatalf("%s: BlockOf disagreeing with the fibers accepted", label)
					}
					p.BlockOf[vi] = saved
				}
			}
		}
	}
}
