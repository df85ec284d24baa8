package core

import (
	"fmt"

	"repro/internal/project"
)

// CheckInvariants verifies the structural guarantees the paper proves about
// Algorithm 1's output. It returns the first violation found, or nil.
//
//   - Completeness/disjointness: every index point belongs to exactly one
//     block (Definition 6 partitions V): the fibers partition V, and
//     BlockOf agrees with the group each fiber belongs to.
//   - Fibers list their index points in execution-time order.
//   - Group geometry: member k of a group sits at Base + slot_k·d_l^p.
//   - Lemma 1 / Theorem 1: no two index points of one block share an
//     execution step, so blocks respect the schedule of Π.
//   - Group size: no group exceeds r members.
func CheckInvariants(p *Partitioning) error {
	ps := p.PS

	// Every projected point grouped exactly once.
	seen := make([]int, len(ps.Points))
	for gi, g := range p.Groups {
		if g.ID != gi {
			return fmt.Errorf("group %d has ID %d", gi, g.ID)
		}
		if int64(len(g.Members)) > p.R {
			return fmt.Errorf("group %d has %d members, exceeds r=%d", gi, len(g.Members), p.R)
		}
		if len(g.Members) != len(g.Slot) {
			return fmt.Errorf("group %d: members/slots length mismatch", gi)
		}
		for mi, m := range g.Members {
			seen[m]++
			if p.GroupOf[m] != gi {
				return fmt.Errorf("GroupOf[%d] = %d, expected %d", m, p.GroupOf[m], gi)
			}
			if p.Grouping != nil {
				k, dl := int64(g.Slot[mi]), p.Grouping.Scaled
				for j, x := range ps.Points[m] {
					if x != g.Base[j]+k*dl[j] {
						return fmt.Errorf("group %d member %d at %v, want %v (base %v slot %d)",
							gi, m, ps.Points[m], g.Base.AddScaled(k, dl), g.Base, g.Slot[mi])
					}
				}
			}
		}
	}
	for i, c := range seen {
		if c != 1 {
			return fmt.Errorf("projected point %d grouped %d times", i, c)
		}
	}

	return checkBlocks(p)
}

// checkBlocks walks every block through Groups → Members → Fibers in one
// flat pass and verifies:
//
//   - the fibers partition V: each vertex is listed exactly once (a visited
//     bitmap), and BlockOf[vi] names the group whose fiber lists vi;
//   - each fiber is in strictly increasing execution-time order;
//   - Lemma 1 / Theorem 1: all index points of a block execute at distinct
//     steps. A coarsened partitioning (MergeFactor > 1) deliberately
//     relaxes the distinct-step property, so this one is skipped then.
func checkBlocks(p *Partitioning) error {
	ps := p.PS
	V := ps.Orig.V
	if len(p.BlockOf) != len(V) {
		return fmt.Errorf("BlockOf has %d entries, structure has %d vertices", len(p.BlockOf), len(V))
	}
	if len(ps.Fibers) != len(ps.Points) {
		return fmt.Errorf("%d fibers for %d projected points", len(ps.Fibers), len(ps.Points))
	}
	steps, err := newStepStamps(ps)
	if err != nil {
		return err
	}
	lemma1 := p.MergeFactor <= 1
	visited := make([]uint64, (len(V)+63)/64)
	covered := 0
	for gi, g := range p.Groups {
		for _, m := range g.Members {
			prev := int64(0)
			for k, vi := range ps.Fibers[m] {
				if vi < 0 || vi >= len(V) {
					return fmt.Errorf("fiber of projected point %d lists vertex %d, outside V", m, vi)
				}
				bit := uint64(1) << (vi & 63)
				if visited[vi>>6]&bit != 0 {
					return fmt.Errorf("vertex %v is listed on more than one fiber position", V[vi])
				}
				visited[vi>>6] |= bit
				covered++
				if p.BlockOf[vi] != gi {
					return fmt.Errorf("vertex %v: BlockOf = %d, but its fiber belongs to group %d", V[vi], p.BlockOf[vi], gi)
				}
				t := ps.Pi.Dot(V[vi])
				if k > 0 && t <= prev {
					return fmt.Errorf("fiber of projected point %d is not in execution-time order", m)
				}
				prev = t
				if lemma1 {
					if err := steps.claim(gi, t); err != nil {
						return err
					}
				}
			}
		}
	}
	if covered != len(V) {
		for vi := range V {
			if visited[vi>>6]&(uint64(1)<<(vi&63)) == 0 {
				return fmt.Errorf("vertex %v lies on no grouped fiber", V[vi])
			}
		}
	}
	return nil
}

// stepStamps is Lemma 1's per-block set of occupied execution steps: a
// stamp array over [t_min, t_max] whose slot t − t_min holds the id + 1 of
// the last block that claimed step t, so moving to the next block needs no
// clearing. A time span over twice |V| (only a Π with huge coefficients
// gets there) folds the array modulo its length, 2|V|, and resolves
// collisions by linear probing on the stored step; no block holds more
// than |V| points, so a probe always ends.
type stepStamps struct {
	tmin   int64
	folded bool
	owner  []int
	step   []int64
}

// newStepStamps sizes the stamp array. Fibers are time-ordered, so their
// endpoints bound every step; claim rejects a step outside the bounds,
// which only an out-of-order fiber can produce.
func newStepStamps(ps *project.Structure) (*stepStamps, error) {
	V := ps.Orig.V
	s := &stepStamps{}
	var tmax int64
	first := true
	for i, fib := range ps.Fibers {
		if len(fib) == 0 {
			return nil, fmt.Errorf("projected point %d has an empty fiber", i)
		}
		for _, vi := range [2]int{fib[0], fib[len(fib)-1]} {
			if vi < 0 || vi >= len(V) {
				return nil, fmt.Errorf("fiber of projected point %d lists vertex %d, outside V", i, vi)
			}
			t := ps.Pi.Dot(V[vi])
			if first {
				s.tmin, tmax, first = t, t, false
			}
			s.tmin, tmax = min(s.tmin, t), max(tmax, t)
		}
	}
	span := uint64(tmax-s.tmin) + 1
	if limit := 2 * uint64(len(V)); span > limit || span == 0 {
		span, s.folded = limit, true
	}
	s.owner = make([]int, span)
	s.step = make([]int64, span)
	return s, nil
}

// claim records that block g executes a point at step t and reports a
// Lemma 1 violation when g already holds that step.
func (s *stepStamps) claim(g int, t int64) error {
	n := uint64(len(s.owner))
	i := uint64(t - s.tmin)
	if i >= n {
		if !s.folded {
			return fmt.Errorf("step %d lies outside the fibers' time range (fiber out of order)", t)
		}
		i %= n
	}
	for s.owner[i] == g+1 {
		if s.step[i] == t {
			return fmt.Errorf("block %d executes two index points at step %d (Lemma 1 violated)", g, t)
		}
		if i++; i == n {
			i = 0
		}
	}
	s.owner[i], s.step[i] = g+1, t
	return nil
}

// Theorem2Bound returns 2m − β for the partitioning, the paper's bound on
// the number of groups any group must send data to.
func Theorem2Bound(p *Partitioning) int {
	m := len(p.PS.Orig.D)
	return 2*m - p.Beta
}

// CheckTheorem2 verifies that the TIG's max out-degree respects the
// Theorem 2 bound.
func CheckTheorem2(p *Partitioning, t *TIG) error {
	bound := Theorem2Bound(p)
	if d := t.MaxOutDegree(); d > bound {
		return fmt.Errorf("max out-degree %d exceeds Theorem 2 bound 2m-β = %d", d, bound)
	}
	return nil
}
