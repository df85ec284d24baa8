package core

import (
	"cmp"
	"fmt"
	"slices"
	"sort"
)

// TIGEdge is one directed communication requirement between two blocks.
type TIGEdge struct {
	From, To int
	// Weight is the number of data items crossing the edge (one per
	// dependence arc between the blocks).
	Weight int64
}

// TIG is the Task Interaction Graph of §IV: vertices are partitioned
// blocks, edges carry the interblock communication volume.
//
// The adjacency is compressed sparse rows: Edges is sorted by (From, To),
// so block u's out-edges are Edges[rowStart[u]:rowStart[u+1]], and the
// per-dependence breakdown of edge e is depW[e·deps : (e+1)·deps].
type TIG struct {
	// N is the number of blocks (TIG vertices).
	N int
	// Loads[g] is the number of index points in block g (its computation
	// weight).
	Loads []int64
	// Edges holds the directed edges, sorted by (From, To).
	Edges []TIGEdge
	// Arcs counts every dependence arc of the structure, intra- and
	// interblock (EdgeStats().Total). Zero for synthetic TIGs.
	Arcs int

	rowStart []int
	// deps is the number of dependence vectors the breakdown distinguishes
	// (the structure's |D|); 0 for synthetic TIGs from NewTIG, which have
	// no breakdown.
	deps int
	depW []int64
}

// NewTIG builds a TIG directly from loads and edges — used for synthetic
// task graphs such as the 4×4 mesh of the paper's Example 3 (Fig. 8).
// Duplicate edges accumulate; every From must be non-negative.
func NewTIG(n int, loads []int64, edges []TIGEdge) *TIG {
	t := &TIG{N: n}
	t.Loads = make([]int64, n)
	copy(t.Loads, loads)
	sorted := slices.Clone(edges)
	slices.SortFunc(sorted, func(a, b TIGEdge) int {
		return cmp.Or(cmp.Compare(a.From, b.From), cmp.Compare(a.To, b.To))
	})
	for _, e := range sorted {
		if k := len(t.Edges) - 1; k >= 0 && t.Edges[k].From == e.From && t.Edges[k].To == e.To {
			t.Edges[k].Weight += e.Weight
			continue
		}
		t.Edges = append(t.Edges, e)
	}
	rows := n
	if k := len(t.Edges); k > 0 && t.Edges[k-1].From >= rows {
		rows = t.Edges[k-1].From + 1
	}
	t.rowStart = make([]int, rows+1)
	for _, e := range t.Edges {
		t.rowStart[e.From+1]++
	}
	for u := 0; u < rows; u++ {
		t.rowStart[u+1] += t.rowStart[u]
	}
	return t
}

// tigArc is one entry of BuildTIG's per-block scratch list: an out-edge
// of the current block and its weight per dependence vector.
type tigArc struct {
	to int
	w  []int64
}

// BuildTIG constructs the TIG of a partitioning by classifying every
// dependence arc of the computational structure. It walks the blocks in
// order (Groups → Members → Fibers) and accumulates each block's
// interblock arcs in a reused scratch list (for the paper's grouping,
// Theorem 2 bounds its length by 2m − β), then appends them sorted by
// target, so rows come out in (From, To) order with no global sort. The
// same walk counts every arc into Arcs.
func BuildTIG(p *Partitioning) *TIG {
	st := p.PS.Orig
	m := len(st.D)
	t := &TIG{N: len(p.Groups), deps: m}
	t.Loads = make([]int64, t.N)
	t.rowStart = make([]int, t.N+1)

	// slot[v] is v's position in scratch while block g is open, valid only
	// when owner[v] == g+1.
	slot := make([]int, t.N)
	owner := make([]int, t.N)
	var scratch []tigArc
	var pool [][]int64 // weight buffers, reused across blocks
	for g, grp := range p.Groups {
		scratch = scratch[:0]
		var load int64
		for _, pt := range grp.Members {
			fib := p.PS.Fibers[pt]
			load += int64(len(fib))
			for _, ui := range fib {
				for di, d := range st.D {
					vi := st.NeighborIndex(ui, d)
					if vi < 0 {
						continue
					}
					t.Arcs++
					gv := p.BlockOf[vi]
					if gv == g {
						continue
					}
					if owner[gv] != g+1 {
						k := len(scratch)
						owner[gv], slot[gv] = g+1, k
						if k == len(pool) {
							pool = append(pool, make([]int64, m))
						} else {
							clear(pool[k])
						}
						scratch = append(scratch, tigArc{to: gv, w: pool[k]})
					}
					scratch[slot[gv]].w[di]++
				}
			}
		}
		t.Loads[g] = load
		slices.SortFunc(scratch, func(a, b tigArc) int { return cmp.Compare(a.to, b.to) })
		for _, a := range scratch {
			var w int64
			for _, x := range a.w {
				w += x
			}
			t.Edges = append(t.Edges, TIGEdge{From: g, To: a.to, Weight: w})
			t.depW = append(t.depW, a.w...)
		}
		t.rowStart[g+1] = len(t.Edges)
	}
	return t
}

// edge returns the index in Edges of the edge u → v, or -1.
func (t *TIG) edge(u, v int) int {
	if u < 0 || u+1 >= len(t.rowStart) {
		return -1
	}
	lo, hi := t.rowStart[u], t.rowStart[u+1]
	i := lo + sort.Search(hi-lo, func(k int) bool { return t.Edges[lo+k].To >= v })
	if i < hi && t.Edges[i].To == v {
		return i
	}
	return -1
}

// Weight returns the communication volume from block u to block v.
func (t *TIG) Weight(u, v int) int64 {
	if e := t.edge(u, v); e >= 0 {
		return t.Edges[e].Weight
	}
	return 0
}

// WeightByDep returns the volume from u to v carried by dependence dep
// (an index into the structure's D). Zero for synthetic TIGs.
func (t *TIG) WeightByDep(u, v, dep int) int64 {
	if dep < 0 || dep >= t.deps {
		return 0
	}
	if e := t.edge(u, v); e >= 0 {
		return t.depW[e*t.deps+dep]
	}
	return 0
}

// DepBreakdown returns the per-dependence volumes from u to v (nil when
// there is no traffic or the TIG is synthetic). The returned map is a copy.
func (t *TIG) DepBreakdown(u, v int) map[int]int64 {
	e := t.edge(u, v)
	if e < 0 || t.deps == 0 {
		return nil
	}
	out := map[int]int64{}
	for dep, w := range t.depW[e*t.deps : (e+1)*t.deps] {
		if w != 0 {
			out[dep] = w
		}
	}
	return out
}

// OutDegree returns the number of distinct blocks u sends data to.
func (t *TIG) OutDegree(u int) int {
	if u < 0 || u+1 >= len(t.rowStart) {
		return 0
	}
	return t.rowStart[u+1] - t.rowStart[u]
}

// MaxOutDegree returns the largest out-degree over all blocks. Theorem 2
// bounds it by 2m − β.
func (t *TIG) MaxOutDegree() int {
	mx := 0
	for u := 0; u < t.N; u++ {
		if d := t.OutDegree(u); d > mx {
			mx = d
		}
	}
	return mx
}

// TotalTraffic returns the sum of all edge weights (total interblock data
// items).
func (t *TIG) TotalTraffic() int64 {
	var s int64
	for _, e := range t.Edges {
		s += e.Weight
	}
	return s
}

// Successors returns the blocks u sends data to, sorted.
func (t *TIG) Successors(u int) []int {
	var out []int
	if u < 0 || u+1 >= len(t.rowStart) {
		return out
	}
	for _, e := range t.Edges[t.rowStart[u]:t.rowStart[u+1]] {
		out = append(out, e.To)
	}
	return out
}

// Bytes estimates the TIG's resident size: loads, edges, CSR row offsets
// and per-edge dependence weights.
func (t *TIG) Bytes() int64 {
	const word = 8
	return int64(cap(t.Loads)+cap(t.rowStart)+cap(t.depW))*word + int64(cap(t.Edges))*3*word
}

// String summarizes the TIG.
func (t *TIG) String() string {
	return fmt.Sprintf("TIG{blocks: %d, edges: %d, traffic: %d, maxOutDeg: %d}",
		t.N, len(t.Edges), t.TotalTraffic(), t.MaxOutDegree())
}
