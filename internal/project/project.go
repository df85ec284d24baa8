// Package project implements the projection phase of Algorithm 1 (§III).
//
// Given a computational structure Q = (V, D) and a time function Π, every
// index point x is projected onto the zero-hyperplane Π·x = 0:
//
//	x^p = x − (x·Π / Π·Π) Π          (Definition 3)
//
// The coordinates of x^p are rationals with denominators dividing
// s = Π·Π, so the package stores points and projected dependence vectors
// *scaled by s* as exact integer vectors: scaled(x) = s·x − (x·Π)·Π.
// Two index points lie on the same projection line (and may therefore share
// a processor, Lemma 1) iff their scaled projections are equal.
//
// For each projected dependence vector d^p the factor r_i — the smallest
// positive integer with r_i·d^p ∈ Z^n — is computed as
// lcm_k( s / gcd(s, scaled_k) ); the paper's group size r is the maximum
// r_i over D^p (Step 1 of Algorithm 1).
package project

import (
	"fmt"
	"slices"
	"sort"

	"repro/internal/hyperplane"
	"repro/internal/ints"
	"repro/internal/loop"
	"repro/internal/rat"
	"repro/internal/vec"
)

// Dep is a projected dependence vector.
type Dep struct {
	// Index is the position of the originating vector in the structure's D.
	Index int
	// Orig is the original dependence vector d.
	Orig vec.Int
	// Scaled is s·d^p, an exact integer vector.
	Scaled vec.Int
	// R is the smallest positive integer with R·d^p ∈ Z^n. R == 1 for
	// dependences parallel to Π (whose projection is the zero vector).
	R int64
}

// IsZero reports whether the dependence projects to the zero vector
// (i.e. d is parallel to Π).
func (d Dep) IsZero() bool { return d.Scaled.IsZero() }

// Rat returns the unscaled rational projected vector d^p.
func (d Dep) Rat(s int64) vec.Rat {
	out := make(vec.Rat, len(d.Scaled))
	for i, x := range d.Scaled {
		out[i] = rat.New(x, s)
	}
	return out
}

// Structure is the projected structure Q^p = (V^p, D^p) of Definition 5,
// in scaled-integer representation.
type Structure struct {
	// Orig is the projected computational structure.
	Orig *loop.Structure
	// Pi is the projection vector (time function).
	Pi vec.Int
	// S is the scale factor Π·Π.
	S int64
	// Points holds the distinct scaled projected points, in lexicographic
	// order.
	Points []vec.Int
	// Fibers[p] lists, for projected point p, the indices into Orig.V of
	// the index points lying on its projection line, sorted by execution
	// time Π·x.
	Fibers [][]int
	// Deps holds one entry per original dependence vector.
	Deps []Dep

	// lattice is the dense O(dims) indexer over the scaled hyperplane
	// lattice; nil when the point set's bounding box is too large, in which
	// case the string-keyed map below is used instead.
	lattice *latticeIndex
	index   map[string]int
}

// Project computes the projected structure of st under pi. pi must be a
// valid time function for st's dependence set (Π·d > 0), since the
// partitioning phase relies on the hyperplane schedule.
func Project(st *loop.Structure, pi vec.Int) (*Structure, error) {
	if len(pi) != st.Dim() {
		return nil, fmt.Errorf("project: Π arity %d, structure dim %d", len(pi), st.Dim())
	}
	if err := hyperplane.Check(pi, st.D); err != nil {
		return nil, err
	}
	s := pi.Dot(pi)
	ps := &Structure{Orig: st, Pi: pi.Clone(), S: s}

	// Project every vertex into one flat coordinate buffer.
	n := st.Dim()
	buf := make([]int64, len(st.V)*n)
	for vi, x := range st.V {
		t := x.Dot(pi)
		row := buf[vi*n : vi*n+n]
		for j, xj := range x {
			row[j] = s*xj - pi[j]*t
		}
	}
	if li := newLatticeIndex(buf, pi); li != nil {
		ps.lattice = li
		ps.bucket(buf)
	} else {
		ps.sortFibers(buf)
	}

	// Project the dependence vectors and compute r factors.
	for di, d := range st.D {
		sd := ScalePoint(d, pi, s)
		ps.Deps = append(ps.Deps, Dep{Index: di, Orig: d.Clone(), Scaled: sd, R: rFactor(sd, s)})
	}
	return ps, nil
}

// bucket groups the vertices into fibers through the dense lattice table,
// in O(V + |V^p| log |V^p|): one pass over V numbers each distinct
// projection at its first occurrence and counts its fiber, only the
// distinct points are sorted, and prefix sums place the vertex ids into
// one shared backing array.
//
// No per-fiber sort is needed. Two vertices share a projection iff they
// differ by a multiple of Π, and V is in lexicographic order, so V's order
// along a fiber is execution-time order when Π is lexicographically
// positive and its reverse otherwise.
func (ps *Structure) bucket(buf []int64) {
	li := ps.lattice
	n := len(ps.Pi)
	nV := len(ps.Orig.V)
	var first, count []int // per projection: first vertex, fiber length
	pid := make([]int32, nV)
	for vi := 0; vi < nV; vi++ {
		off := li.offset(buf[vi*n : vi*n+n])
		id := li.table[off] - 1
		if id < 0 {
			id = int32(len(first))
			li.table[off] = id + 1
			first = append(first, vi)
			count = append(count, 0)
		}
		pid[vi] = id
		count[id]++
	}

	// Sort the distinct points lexicographically; rank maps discovery id
	// to position in Points.
	np := len(first)
	order := make([]int32, np)
	for i := range order {
		order[i] = int32(i)
	}
	row := func(id int32) vec.Int { return buf[first[id]*n : first[id]*n+n] }
	slices.SortFunc(order, func(a, b int32) int { return row(a).Cmp(row(b)) })
	rank := make([]int32, np)
	points := make([]int64, np*n)
	ps.Points = make([]vec.Int, np)
	start := make([]int, np+1)
	for i, id := range order {
		rank[id] = int32(i)
		p := points[i*n : i*n+n : i*n+n]
		copy(p, row(id))
		ps.Points[i] = p
		li.table[li.offset(p)] = int32(i) + 1
		start[i+1] = start[i] + count[id]
	}

	backing := make([]int, nV)
	next := append([]int(nil), start[:np]...)
	for vi, id := range pid {
		r := rank[id]
		backing[next[r]] = vi
		next[r]++
	}
	reverse := !ps.Pi.LexPositive()
	ps.Fibers = make([][]int, np)
	for i := range ps.Fibers {
		f := backing[start[i]:start[i+1]:start[i+1]]
		if reverse {
			slices.Reverse(f)
		}
		ps.Fibers[i] = f
	}
}

// sortFibers is the fallback for point sets whose lattice box exceeds
// latticeDenseCap: it sorts vertex ids by (scaled projection, execution
// time) so equal projections become adjacent runs, and indexes the
// distinct points through a string-keyed map.
func (ps *Structure) sortFibers(buf []int64) {
	n := len(ps.Pi)
	nV := len(ps.Orig.V)
	times := make([]int64, nV)
	order := make([]int, nV)
	for vi, x := range ps.Orig.V {
		times[vi] = x.Dot(ps.Pi)
		order[vi] = vi
	}
	sort.Slice(order, func(a, b int) bool {
		ra := buf[order[a]*n : order[a]*n+n]
		rb := buf[order[b]*n : order[b]*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return ra[j] < rb[j]
			}
		}
		return times[order[a]] < times[order[b]]
	})
	sameRow := func(a, b int) bool {
		ra := buf[a*n : a*n+n]
		rb := buf[b*n : b*n+n]
		for j := 0; j < n; j++ {
			if ra[j] != rb[j] {
				return false
			}
		}
		return true
	}
	for i := 0; i < nV; {
		vi := order[i]
		// Copy the unique projection out of buf so the big per-vertex
		// buffer is not pinned by the (much smaller) point set.
		ps.Points = append(ps.Points, vec.Int(buf[vi*n:vi*n+n]).Clone())
		j := i
		for j < nV && sameRow(vi, order[j]) {
			j++
		}
		fib := make([]int, j-i)
		copy(fib, order[i:j])
		ps.Fibers = append(ps.Fibers, fib)
		i = j
	}
	ps.index = make(map[string]int, len(ps.Points))
	for i, p := range ps.Points {
		ps.index[p.Key()] = i
	}
}

// latticeDenseCap bounds the dense lattice table size (entries). Projected
// points lie on the (n−1)-dimensional hyperplane Π·y = 0, so eliminating
// one coordinate keeps the table near |V^p| for the paper's nests; sets
// whose reduced bounding box still exceeds the cap fall back to the map.
var latticeDenseCap = int64(1) << 22

// latticeIndex indexes scaled projected points in O(dims) arithmetic.
// Every scaled projection satisfies Π·y = 0 (so do the scaled projected
// dependence vectors, hence every lattice position Algorithm 1 probes), so
// one coordinate with Π_k ≠ 0 is redundant and the table covers only the
// bounding box of the remaining coordinates. A lookup bounds-checks the
// retained coordinates, reads the table slot, and verifies the stored point
// — the verification also rejects off-hyperplane queries.
type latticeIndex struct {
	drop    int
	lo, hi  []int64 // per original dimension; the dropped entry is unused
	strides []int64
	table   []int32 // point index + 1; 0 marks an empty slot
}

// newLatticeIndex sizes an empty dense table over the bounding box of the
// scaled projections in buf (rows of len(pi) coordinates). It returns nil
// when buf is empty or the reduced box exceeds latticeDenseCap.
func newLatticeIndex(buf []int64, pi vec.Int) *latticeIndex {
	n := len(pi)
	if len(buf) == 0 {
		return nil
	}
	lo := append([]int64(nil), buf[:n]...)
	hi := append([]int64(nil), buf[:n]...)
	for i := n; i < len(buf); i += n {
		for j, x := range buf[i : i+n] {
			lo[j] = min(lo[j], x)
			hi[j] = max(hi[j], x)
		}
	}
	// Drop the widest dimension with Π_k ≠ 0 (Π is nonzero, so one always
	// exists); the hyperplane equation makes it redundant.
	drop := -1
	for j := 0; j < n; j++ {
		if pi[j] == 0 {
			continue
		}
		if drop < 0 || hi[j]-lo[j] > hi[drop]-lo[drop] {
			drop = j
		}
	}
	if drop < 0 {
		return nil
	}
	li := &latticeIndex{drop: drop, lo: lo, hi: hi, strides: make([]int64, n)}
	volume := int64(1)
	for j := n - 1; j >= 0; j-- {
		if j == drop {
			continue
		}
		li.strides[j] = volume
		extent, ok := ints.CheckedSub(hi[j], lo[j])
		if !ok || extent >= latticeDenseCap {
			return nil
		}
		if volume, ok = ints.CheckedMul(volume, extent+1); !ok || volume > latticeDenseCap {
			return nil
		}
	}
	li.table = make([]int32, volume)
	return li
}

// offset computes the table slot of an in-box point.
func (li *latticeIndex) offset(p vec.Int) int64 {
	var off int64
	for j, x := range p {
		if j == li.drop {
			continue
		}
		off += (x - li.lo[j]) * li.strides[j]
	}
	return off
}

// lookup returns the index of the scaled point, or -1.
func (li *latticeIndex) lookup(p vec.Int, points []vec.Int) int {
	var off int64
	for j, x := range p {
		if j == li.drop {
			continue
		}
		if x < li.lo[j] || x > li.hi[j] {
			return -1
		}
		off += (x - li.lo[j]) * li.strides[j]
	}
	t := li.table[off]
	if t == 0 {
		return -1
	}
	i := int(t) - 1
	if !points[i].Equal(p) {
		return -1
	}
	return i
}

// ScalePoint returns s·x − (x·Π)·Π, the projection of x scaled by s = Π·Π.
func ScalePoint(x, pi vec.Int, s int64) vec.Int {
	t := x.Dot(pi)
	return x.Scale(s).Sub(pi.Scale(t))
}

// rFactor computes the smallest positive r with r·(scaled/s) ∈ Z^n.
func rFactor(scaled vec.Int, s int64) int64 {
	r := int64(1)
	for _, c := range scaled {
		g := ints.GCD(s, c)
		r = ints.LCM(r, s/g)
	}
	return r
}

// IndexOf returns the position of a scaled projected point, or -1.
func (ps *Structure) IndexOf(scaled vec.Int) int {
	if ps.lattice != nil {
		return ps.lattice.lookup(scaled, ps.Points)
	}
	i, ok := ps.index[scaled.Key()]
	if !ok {
		return -1
	}
	return i
}

// Dense reports whether lookups run on the dense lattice table rather than
// the string-keyed fallback map.
func (ps *Structure) Dense() bool { return ps.lattice != nil }

// IndexBytes estimates the resident size of the point index: the dense
// lattice table, or the fallback map's entries (string header, key bytes
// and value).
func (ps *Structure) IndexBytes() int64 {
	if ps.lattice != nil {
		return int64(cap(ps.lattice.table)) * 4
	}
	return int64(len(ps.index)) * int64(16+8*len(ps.Pi)+8)
}

// HasPoint reports whether the scaled point belongs to V^p.
func (ps *Structure) HasPoint(scaled vec.Int) bool {
	return ps.IndexOf(scaled) >= 0
}

// ProjectionOf returns the scaled projected point of an index point.
func (ps *Structure) ProjectionOf(x vec.Int) vec.Int {
	return ScalePoint(x, ps.Pi, ps.S)
}

// RatPoint returns the unscaled rational coordinates of projected point i
// (for display and for cross-checks against the paper's figures).
func (ps *Structure) RatPoint(i int) vec.Rat {
	out := make(vec.Rat, len(ps.Points[i]))
	for k, x := range ps.Points[i] {
		out[k] = rat.New(x, ps.S)
	}
	return out
}

// GroupSizeR returns the paper's group size r = max_i r_i over the
// projected dependence vectors (1 when there are no dependences).
func (ps *Structure) GroupSizeR() int64 {
	r := int64(1)
	for _, d := range ps.Deps {
		if d.R > r {
			r = d.R
		}
	}
	return r
}

// NonzeroDeps returns the projected dependences with nonzero projection,
// deduplicated by scaled vector (two original dependences may project to
// the same d^p).
func (ps *Structure) NonzeroDeps() []Dep {
	seen := map[string]bool{}
	var out []Dep
	for _, d := range ps.Deps {
		if d.IsZero() {
			continue
		}
		k := d.Scaled.Key()
		if seen[k] {
			continue
		}
		seen[k] = true
		out = append(out, d)
	}
	return out
}

// FiberPoints returns the index points on the projection line of projected
// point i, in execution-time order.
func (ps *Structure) FiberPoints(i int) []vec.Int {
	out := make([]vec.Int, len(ps.Fibers[i]))
	for j, vi := range ps.Fibers[i] {
		out[j] = ps.Orig.V[vi]
	}
	return out
}
